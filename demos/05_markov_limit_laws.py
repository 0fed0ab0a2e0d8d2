"""The two corank chains and their closed-form stationary laws."""

from cnkit.altsim import (
    alpha,
    classrank_markov_step,
    classrank_stationary,
    gerth_pmf,
    markov_stationary,
    markov_step,
)

print("corank chain transitions (step +2 / 0 / -2):")
for k in range(4):
    up, stay, down = markov_step(k)
    print(f"  k={k}: {up:.5f} / {stay:.5f} / {down:.5f}")

for parity in ("even", "odd"):
    st = markov_stationary(parity, k_max=64)
    ks = sorted(st)[:4]
    print(f"\n{parity} stationary vs closed form:")
    for k in ks:
        print(f"  k={k}: {st[k]:.10f}  alpha_k = {alpha(k):.10f}")

print("\nclass-rank chain (step +1 / 0 / -1) and its stationary law:")
for k in range(3):
    up, stay, down = classrank_markov_step(k)
    print(f"  k={k}: {up:.5f} / {stay:.5f} / {down:.5f}")
st = classrank_stationary(k_max=64)
for k in range(4):
    print(f"  k={k}: {st[k]:.10f}  limit pmf = {gerth_pmf(k):.10f}")
