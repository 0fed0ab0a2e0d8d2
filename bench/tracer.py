"""Per-layer tracing from outside the library.

The tracer replaces chosen cnkit functions with wrappers, in every cnkit
module that holds a reference to them, and restores them on exit.  Timed
wrappers keep a stack of spans so that each name gets inclusive and self
time (its duration minus the time of the timed spans it caused); counted
wrappers only count calls and add no span.  Nothing under src/ changes.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from cnkit import _batchrank, altsim, density, gf2, lfun, monsky, numtheory

# (module, attribute, span name)
TIMED = (
    (density, "scan", "density.scan"),
    (density, "fourrank_census", "density.census"),
    (numtheory, "try_factor_squarefree", "numtheory.factor"),
    (monsky, "build_twist", "monsky.twist"),
    (monsky, "row_det", "monsky.row_det"),
    (monsky, "rank3_indicator", "monsky.rank3"),
    (lfun, "verify_rows", "lfun.verify_rows"),
    (lfun, "divisor_sum", "lfun.divisor_sum"),
    (gf2, "block", "gf2.block"),
    (gf2, "det", "gf2.det"),
    (gf2, "corank", "gf2.corank"),
    (altsim, "four_rank", "altsim.four_rank"),
    (altsim, "_assemble_block", "altsim.assemble"),
    (_batchrank, "pack_rows", "batchrank.pack"),
    (_batchrank, "rank_batch", "batchrank.rank"),
)
COUNTED = (
    (numtheory, "legendre_plus", "numtheory.legendre"),
    (lfun, "redei_g_parts", "lfun.g"),
    (density, "_scan_block", "density.block"),
    (density, "_census_block", "density.block"),
)


class Tracer:
    """Call counts, inclusive and self seconds per span name, plus the
    matrices ranked, bytes packed and F2Matrix objects built."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.matrices = 0
        self.bytes_packed = 0
        self.f2_built = 0
        self._stack: list[float] = []

    def timed(self, name, fn):
        def span(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_s[name] += dt - child

        return span

    def counted(self, name, fn):
        def count(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return count

    def count_matrices(self, rank_batch):
        def ranked(mats):
            self.matrices += mats.shape[0]
            return rank_batch(mats)

        return ranked

    def count_bytes(self, pack_rows):
        def packed(bits):
            words = pack_rows(bits)
            self.bytes_packed += words.nbytes
            return words

        return packed

    def wrappers(self):
        """(module, attribute, wrapper) for every traced function."""
        sized = {"rank_batch": self.count_matrices, "pack_rows": self.count_bytes}
        out = []
        for mod, attr, name in TIMED:
            fn = getattr(mod, attr)
            if attr in sized:
                fn = sized[attr](fn)
            out.append((mod, attr, self.timed(name, fn)))
        for mod, attr, name in COUNTED:
            out.append((mod, attr, self.counted(name, getattr(mod, attr))))
        return out


def _cnkit_modules():
    return [m for name, m in sys.modules.items() if name == "cnkit" or name.startswith("cnkit.")]


@contextmanager
def installed(tracer: Tracer):
    """Route every cnkit reference to the traced functions through `tracer`."""
    saved = []
    for mod, attr, wrapper in tracer.wrappers():
        original = getattr(mod, attr)
        for holder in _cnkit_modules():
            if getattr(holder, attr, None) is original:
                saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)
    post_init = gf2.F2Matrix.__post_init__

    def counting_post_init(m):
        tracer.f2_built += 1
        post_init(m)

    gf2.F2Matrix.__post_init__ = counting_post_init
    try:
        yield tracer
    finally:
        gf2.F2Matrix.__post_init__ = post_init
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


def layer_metrics(tr: Tracer, rounds: int, items_per_round: int) -> dict:
    """Per-layer (value, unit) per round, from `rounds` traced rounds with
    identical counts.

    Counts are per round; `_us` values are microseconds per call, except
    the two scan columns (per item, i.e. per scanned n) and the Monte
    Carlo assembly (per matrix ranked).
    """
    c, incl, self_s = tr.calls, tr.incl, tr.self_s

    def count(n):
        return (n // rounds, "count")

    def per_call(name):
        return (1e6 * incl[name] / c[name] if c[name] else 0.0, "us")

    def per(total_s, n):
        return (1e6 * total_s / n if n else 0.0, "us")

    n = items_per_round * rounds
    return {
        "numtheory.factor_calls": count(c["numtheory.factor"]),
        "numtheory.factor_us": per_call("numtheory.factor"),
        "numtheory.legendre_calls": count(c["numtheory.legendre"]),
        "monsky.twist_calls": count(c["monsky.twist"]),
        "monsky.twist_us": per_call("monsky.twist"),
        "monsky.det_col_us": per(incl["monsky.row_det"], n),
        "monsky.rank3_us": per_call("monsky.rank3"),
        "gf2.matrices_per_n": (tr.f2_built / n, "count"),
        "gf2.block_us": per_call("gf2.block"),
        "gf2.det_calls": count(c["gf2.det"]),
        "gf2.det_us": per_call("gf2.det"),
        "gf2.corank_calls": count(c["gf2.corank"]),
        "gf2.corank_us": per_call("gf2.corank"),
        "lfun.sum_col_us": per(incl["lfun.divisor_sum"], n),
        "lfun.g_evals": count(c["lfun.g"]),
        "altsim.four_rank_self_us": per(self_s["altsim.four_rank"], c["altsim.four_rank"]),
        "altsim.mc_assemble_us": per(self_s["altsim.assemble"], tr.matrices),
        "batchrank.matrices": count(tr.matrices),
        "batchrank.rank_us": per_call("batchrank.rank"),
        "batchrank.pack_us": per_call("batchrank.pack"),
        "batchrank.bytes_packed": (tr.bytes_packed // rounds, "bytes"),
        "density.blocks": count(c["density.block"]),
        "density.self_s": ((self_s["density.scan"] + self_s["density.census"]) / rounds, "s"),
    }
