import argparse
import csv
import hashlib
import json
import tracemalloc

import pytest

from cnkit import altsim, cli
from cnkit.cli import main
from cnkit.numtheory import sieve_init


@pytest.fixture(scope="module")
def sieve_2000():
    return sieve_init(2000)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_alpha_table(capsys):
    code, out = run(["alpha", "--k-max", "4"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    table = {int(r["k"]): float(r["alpha"]) for r in rows}
    assert 0.8388 < table[1] < 0.8389
    assert abs(table[0] / table[1] - 0.5) < 1e-12


def test_verify_small(capsys):
    code, out = run(["verify", "--max-n", "2000"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "n,row,sum_value,det_value,matrix"
    assert len(out.splitlines()) == 1  # no mismatches streamed


def test_verify_n1(capsys):
    code, _ = run(["verify", "--max-n", "1"], capsys)
    assert code == 0


def test_verify_unwritable_out(capsys):
    code = main(["verify", "--max-n", "100", "--out", "/nonexistent-dir/x.csv"])
    assert code == 2


def test_certify_schema(capsys):
    code, out = run(["certify", "--residue", "5", "--max-n", "40"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,residue,row,selmer_rank3,L_value"
    assert [line.split(",")[0] for line in lines[1:]] == ["5", "13", "21", "29", "37"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_certify_rows_read_in_blocks(capsys, monkeypatch, fmt):
    # The certified records are read a BLOCK at a time; cut into blocks of
    # 7 records they give the same output.
    args = ["certify", "--residue", "7", "--max-n", "3000", "--format", fmt]
    code, want = run(args, capsys)
    assert code == 0 and len(want.splitlines()) > 30
    monkeypatch.setattr(cli, "BLOCK", 7)
    assert run(args, capsys) == (code, want)


def test_simulate_deterministic(tmp_path, capsys):
    args = ["simulate", "--row", "5a", "--r", "10", "--samples", "3000", "--seed", "7"]
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", p1]) == 0
    assert main(args + ["--workers", "3", "--out", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()
    with open(p1) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["corank"] == "1"
    assert sum(int(r["count"]) for r in rows) == 3000


def test_csv_json_same_values(tmp_path):
    base = ["simulate", "--row", "7a", "--r", "8", "--samples", "1000", "--seed", "3"]
    pc, pj = str(tmp_path / "x.csv"), str(tmp_path / "x.json")
    assert main(base + ["--format", "csv", "--out", pc]) == 0
    assert main(base + ["--format", "json", "--out", pj]) == 0
    with open(pc) as fh:
        crows = list(csv.DictReader(fh))
    doc = json.load(open(pj))
    assert doc["meta"]["seed"] == 3
    assert len(doc["rows"]) == len(crows)
    for cr, jr in zip(crows, doc["rows"]):
        assert int(cr["corank"]) == jr["corank"]
        assert int(cr["count"]) == jr["count"]
        assert cr["frequency"] == repr(jr["frequency"])


@pytest.mark.parametrize("count", [0, 1, 3])
def test_json_streamed_equals_whole_document(tmp_path, monkeypatch, count):
    # --format json is written a BLOCK of rows at a time (here also 2, so
    # that 3 rows span two blocks), byte for byte the dump of the whole
    # document: "meta" first, and "rows": [] when empty.  The rows hold
    # every scalar type, and strings that look like the text between rows.
    header = ["n", "label", "flag", "value", "none"]
    rows = [
        [7, "5a", True, 0.1, None],
        [-(2 ** 70), 'q"\n},\n      {"\u00e9', False, 1e300, None],
        [0, "", True, float("nan"), None],
    ][:count]
    meta = {"version": "0", "command": "certify", "seed": None, "config_hash": "ab"}
    document = {"meta": meta, "rows": [dict(zip(header, row)) for row in rows]}
    want = json.dumps(document, indent=2, sort_keys=True) + "\n"
    out = tmp_path / "rows.json"
    for block in (cli.BLOCK, 2):
        monkeypatch.setattr(cli, "BLOCK", block)
        cli._emit(header, iter(rows), meta, argparse.Namespace(format="json", out=str(out)))
        assert out.read_text() == want, block


def test_scan_json_meta(capsys):
    code, out = run(
        ["scan", "--residue", "6", "--max-n", "2000", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["version"]
    assert doc["meta"]["seed"] is None
    metrics = {r["metric"]: r for r in doc["rows"]}
    assert metrics["identity_mismatches"]["count"] == 0
    assert 0 <= metrics["rank3"]["frequency"] <= 1
    assert metrics["rank3"]["ci_low"] <= metrics["rank3"]["frequency"]


def test_scan_worker_byte_identity(tmp_path):
    base = ["scan", "--residue", "5", "--max-n", str(2 * (1 << 16))]
    p1, p2 = str(tmp_path / "w1.csv"), str(tmp_path / "w2.csv")
    assert main(base + ["--workers", "1", "--out", p1]) == 0
    assert main(base + ["--workers", "2", "--out", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize(
    "command", [["certify", "--residue", "7"], ["verify", "--format", "json"]]
)
def test_certify_and_verify_worker_byte_identity(tmp_path, command):
    base = command + ["--max-n", str((1 << 16) + 5000)]  # two blocks
    p1, p2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    assert main(base + ["--workers", "1", "--out", p1]) == 0
    assert main(base + ["--workers", "2", "--out", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_markov_chains(capsys):
    code, out = run(["markov", "--chain", "classrank", "--k-max", "16"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    gap = max(abs(float(r["probability"]) - float(r["closed_form"])) for r in rows[:8])
    assert gap < 1e-6
    code, out = run(["markov", "--chain", "even", "--k-max", "32"], capsys)
    assert code == 0


def test_classcheck(capsys):
    code, out = run(["classcheck", "--max-n", "300"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "n,redei_g,four_rank,class_number"
    assert len(out.splitlines()) == 1


def test_verify_mismatch_exits_one(sieve_2000, capsys, monkeypatch):
    # A flipped g-table entry must show as mismatches: exit 1, sorted by n
    # and then by row, each with its scalar determinant and matrix dump.
    import cnkit.density as density
    from cnkit.monsky import build_twist, row_det, row_matrix
    from cnkit.numtheory import factor_squarefree

    real = density.redei_g_table

    def flipped(*args, **kwargs):
        table = real(*args, **kwargs).copy()
        table[13] ^= 1
        return table

    monkeypatch.setattr(density, "redei_g_table", flipped)
    code, out = run(["verify", "--max-n", "2000"], capsys)
    assert code == 1
    rows = list(csv.DictReader(out.splitlines()))
    assert out.splitlines()[0] == "n,row,sum_value,det_value,matrix"
    keys = [(int(r["n"]), r["row"]) for r in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert len({n % 8 for n, _ in keys}) > 1
    for r in rows:
        twist = build_twist(factor_squarefree(int(r["n"]), sieve_2000))
        assert json.loads(r["matrix"]) == row_matrix(r["row"], twist).tolist()
        assert int(r["det_value"]) == row_det(r["row"], twist)
        assert int(r["sum_value"]) == 1 - int(r["det_value"])


def test_certify_mismatch_exits_one(capsys, monkeypatch):
    # The same flipped g-table entry fails certify: a certificate stands
    # on a divisor sum that no longer equals its determinant.
    import cnkit.density as density

    real = density.redei_g_table

    def flipped(*args, **kwargs):
        table = real(*args, **kwargs).copy()
        table[13] ^= 1
        return table

    monkeypatch.setattr(density, "redei_g_table", flipped)
    code, out = run(["certify", "--residue", "5", "--max-n", "2000"], capsys)
    assert code == 1
    assert out.splitlines()[0] == "n,residue,row,selmer_rank3,L_value"


def test_verify_reports_rows_checked(capsys):
    from cnkit.monsky import rows_for_residue
    from cnkit.numtheory import factor_small

    squarefree = [n for n in range(1, 2001) if factor_small(n) is not None]
    rows = sum(len(rows_for_residue(n % 8)) for n in squarefree)
    assert main(["verify", "--max-n", "2000"]) == 0
    err = capsys.readouterr().err
    assert err == f"checked: {rows} rows over {len(squarefree)} n\n"


def test_clean_range_builds_no_scalar_twist(capsys, monkeypatch):
    # verify and certify run on the bulk engine: on a clean range no
    # scalar factorization, twist, divisor sum or row check is made.
    import cnkit.lfun as lfun
    import cnkit.monsky as monsky
    import cnkit.numtheory as numtheory

    def forbidden(*args, **kwargs):
        raise AssertionError("scalar path called")

    for mod, names in (
        (numtheory, ("try_factor_squarefree", "enumerate_squarefree")),
        (monsky, ("build_twist",)),
        (lfun, ("build_twist", "divisor_sum", "verify_rows")),
        (cli, ("build_twist", "factor_squarefree", "enumerate_squarefree")),
    ):
        for name in names:
            monkeypatch.setattr(mod, name, forbidden)
    assert main(["verify", "--max-n", "3000"]) == 0
    assert main(["certify", "--residue", "7", "--max-n", "3000"]) == 0
    capsys.readouterr()


def test_classcheck_disagreement_exits_one(capsys, monkeypatch):
    import cnkit.cli as cli

    monkeypatch.setattr(cli, "redei_g", lambda f: 0)
    code, out = run(["classcheck", "--max-n", "30"], capsys)
    assert code == 1
    assert len(out.splitlines()) > 1


def test_bad_arguments(capsys):
    assert main(["nonsense"]) == 3
    assert main(["simulate", "--row", "9q", "--samples", "10"]) == 3
    assert main(["scan", "--residue", "4", "--max-n", "100"]) == 3
    assert main(["markov", "--chain", "even", "--k-max", "2"]) == 3


def test_simulate_guards_r(capsys, monkeypatch):
    import cnkit.altsim as altsim

    def no_draws(*args):
        raise AssertionError("drew a block")

    monkeypatch.setattr(altsim, "_draw_block", no_draws)
    assert main(["simulate", "--row", "5a", "--r", "0", "--samples", "10"]) == 3
    assert "r must be positive" in capsys.readouterr().err
    # one 4096-sample block at r = 2000 would take about 2.2 GB
    assert main(["simulate", "--row", "5a", "--r", "2000", "--samples", "100000"]) == 2
    assert "resource error" in capsys.readouterr().err
    # a negative seed is refused before a block is drawn, not by numpy
    assert main(["simulate", "--row", "5a", "--r", "4", "--seed", "-1", "--samples", "10"]) == 3
    assert "error: seed must be non-negative" in capsys.readouterr().err


def test_workers_only_where_read(capsys):
    for args in (
        ["classcheck", "--max-n", "100"],
        ["markov", "--chain", "odd"],
        ["alpha"],
    ):
        assert main(args + ["--workers", "2"]) == 3, args
        assert "--workers" in capsys.readouterr().err
    for args in (
        ["scan", "--residue", "5", "--max-n", "100"],
        ["certify", "--residue", "5", "--max-n", "100"],
        ["verify", "--max-n", "100"],
    ):
        assert main(args + ["--workers", "2"]) == 0, args
    args = ["simulate", "--row", "5a", "--r", "4", "--samples", "50", "--workers", "2"]
    assert main(args) == 0



def test_workers_below_one_rejected(capsys, monkeypatch):
    for workers in ("0", "-2"):
        for args in (
            ["scan", "--residue", "5", "--max-n", "100"],
            ["simulate", "--row", "5a", "--r", "4", "--samples", "50"],
        ):
            assert main(args + ["--workers", workers]) == 3, (args, workers)
            assert "--workers: must be at least 1" in capsys.readouterr().err
    # One block of work starts no pool, however many workers are asked for.
    import cnkit.numtheory as numtheory

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(numtheory, "ProcessPoolExecutor", no_pool)
    assert main(["scan", "--residue", "5", "--max-n", "100", "--workers", "64"]) == 0


def test_negative_max_n_rejected(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError("a sieve was built")

    with monkeypatch.context() as mp:
        mp.setattr(cli, "sieve_init", no_sieve)
        for args in (
            ["verify"],
            ["scan", "--residue", "5"],
            ["certify", "--residue", "5"],
            ["classcheck"],
        ):
            assert main(args + ["--max-n", "-5"]) == 3, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--max-n: must be nonnegative, got -5" in captured.err
    # --max-n 0 stays valid: a header and no rows.
    for args, header in (
        (["verify"], "n,row,sum_value,det_value,matrix"),
        (["scan", "--residue", "5"], "metric,count,total,frequency,ci_low,ci_high"),
        (["certify", "--residue", "5"], "n,residue,row,selmer_rank3,L_value"),
        (["classcheck"], "n,redei_g,four_rank,class_number"),
    ):
        code, out = run(args + ["--max-n", "0"], capsys)
        assert code == 0 and out.splitlines()[0] == header, args


def test_sieve_past_the_limit_exits_two(capsys):
    # 2**30 + 1 is refused before the table is allocated.
    assert main(["scan", "--residue", "5", "--max-n", "1073741825"]) == 2
    assert "resource error: sieve limit 1073741825" in capsys.readouterr().err


def test_simulate_samples_bounded_before_blocks(capsys, monkeypatch):
    def no_blocks(*args):
        raise AssertionError("blocks were built")

    monkeypatch.setattr(altsim, "spans", no_blocks)
    monkeypatch.setattr(altsim, "map_blocks", no_blocks)
    cfg = altsim.ensemble_config("5a")
    with pytest.raises(altsim.ResourceLimitError, match="over the bound of 268435456 samples"):
        altsim.corank_distribution_mc(cfg, r=30, samples=10 ** 15, seed=1)
    args = ["simulate", "--row", "5a", "--samples", str(10 ** 15), "--workers", "2"]
    assert main(args) == 2
    assert "resource error" in capsys.readouterr().err


def test_alpha_rows_streamed(tmp_path):
    # The rows are written as they come: the peak stays far below the
    # 22.8 MB that a list of all 200,001 rows took.
    out = tmp_path / "alpha.csv"
    tracemalloc.start()
    try:
        assert main(["alpha", "--k-max", "200000", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    assert len(out.read_text().splitlines()) == 200_002


def test_alpha_and_markov_past_the_float_range(capsys):
    code, out = run(["alpha", "--k-max", "1100"], capsys)
    assert code == 0 and out.splitlines()[-1] == "1100,0.0"
    code, out = run(["markov", "--chain", "odd", "--k-max", "1100"], capsys)
    assert code == 0 and out.splitlines()[-1] == "1099,0.0,0.0"


def test_markov_fails_fast(capsys, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(altsim, "CHAIN_TOL", 1e-30)
        assert main(["markov", "--chain", "odd"]) == 3
    assert "not below tol=1e-30" in capsys.readouterr().err
    for chain in ("even", "odd", "classrank"):
        for k_max in ("0", "-1", "7"):
            assert main(["markov", "--chain", chain, f"--k-max={k_max}"]) == 3, (chain, k_max)
            assert "k_max must be at least 8" in capsys.readouterr().err
    assert main(["markov", "--chain", "classrank", "--k-max", "1000000"]) == 2
    assert "over the chain bound" in capsys.readouterr().err
    assert main(["alpha", "--k-max=-3"]) == 3
    assert "k_max must be nonnegative" in capsys.readouterr().err


# SHA-256 of each command's output file, recorded before the bulk forms
# were rebuilt from one border table: the CSV and JSON output must stay
# byte-identical across refactors.  The two `markov` digests were renewed
# when the chains were solved by detailed balance instead of power
# iteration, which moved their last digits toward the closed form.  The
# `simulate` digest was renewed when U came to be drawn as row words, a
# different random stream.
_PINNED_OUTPUTS = {
    "scan --residue 1 --max-n 20000 --format csv": "b32f57df927ed19de45ccd27ab5181ac1c0e4b4b01a977c88f1a1eddadf44bc7",
    "scan --residue 1 --max-n 20000 --format json": "7bdb606d7c924a0baa9b9b47dc734b64d95ef2c0931abafa62af67fb4279bae4",
    "scan --residue 2 --max-n 20000 --format csv": "5b9d97517a6bc5ebf106b8fe85fb32685176ea0bdf3d7ea5b98dbcc6d859c195",
    "scan --residue 2 --max-n 20000 --format json": "8ffdf94d7a761d170553d8c74f9587563327bf8fb6aaab1130e32ff5864f171c",
    "scan --residue 3 --max-n 20000 --format csv": "af794b4e69b5142d7adec80a68afc6c521b7a86246c964dbda6ad9de95a17d96",
    "scan --residue 3 --max-n 20000 --format json": "54e29c579ce3e4d2bec156b6eda7226aebaa2f7fe442ec005e1b5b09f4e1fd05",
    "scan --residue 5 --max-n 20000 --format csv": "32ec239061f59154f4f2aeb981a7592bcb0d2c26e63371ca4ce9313e7b76f021",
    "scan --residue 5 --max-n 20000 --format json": "f773679385036fc92ad01b384e9ea46e8253c4f1bdcf0fc66cb134de12697fa2",
    "scan --residue 6 --max-n 20000 --format csv": "79eabd84ebcdeece410a4bffb7978fbcf859d73d25ae8e2153f721c07b3fa755",
    "scan --residue 6 --max-n 20000 --format json": "0433742a7e058a858baa3ae286faa02f320e5816634ff456f9de3227130a0fbe",
    "scan --residue 7 --max-n 20000 --format csv": "5448b83e5f03911debeece0250edd9ce86d66d7e37ac46e3f790a2d95c708b27",
    "scan --residue 7 --max-n 20000 --format json": "deb2c5bb51a8d0f9103ab804e63d12494de9463dce7ce44f9c5258cd0085bd58",
    "certify --residue 5 --max-n 20000": "197b904c1b717528f74b3303e36a7a2b109db9d73cb46630aa35e0bfea0cb345",
    "certify --residue 6 --max-n 20000": "e75a43b09ceff47684ce9b870b49a78a81b7a4d25411bf531f06ad76181e1b14",
    "certify --residue 7 --max-n 20000": "41db132e1b1be28d74547eec6261ef740d20dd74d3ae075e4471d1e6fa5b97fc",
    "verify --max-n 20000": "c68c98cf31932a600d2a470068cfb456f7f35aa21ad77c047438d88d100d5448",
    "verify --max-n 20000 --format json": "0c42dab6188844f4416a0854727ff5aeae702995505c928c494222b043b9b0c7",
    "simulate --row 7a --r 12 --samples 3000 --seed 11": "16f2e7a8ea51925ad736e16c4d3a925de026fee3a1788dae66aaa9b9d03af56d",
    "alpha --k-max 1022": "3efcfeb2b0e9169128f8f2900e534f6fe5c660f967258204994230faf4632505",
    "markov --chain odd --k-max 64": "755778435309b0f27574e55e2dea81be21e518ca8b5034b1b1ac7f46020e9e51",
    "markov --chain classrank --k-max 32": "df3fe237fc7b51e178e92240de836cd7ffe6a16627dfc3b3aea731e18bc3df74",
}


def test_cli_outputs_pinned(tmp_path):
    out = str(tmp_path / "out")
    changed = []
    for command, digest in _PINNED_OUTPUTS.items():
        assert main(command.split() + ["--out", out]) == 0, command
        with open(out, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                changed.append(command)
    assert changed == []
