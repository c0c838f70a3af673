"""The A/B harness's verdict on fixed numbers, and its pair loop on stub
roots, without running the benchmark."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]  # quartiles 98.75, 101.25


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr():
    v = verdict(PARENT, [p * 1.2 for p in PARENT], "higher", 0.24)
    assert v["verdict"] == "gain" and v["wins"] == 10 and v["pairs"] == 10
    assert v["ratio"] == pytest.approx(1.2) and v["iqr"] == pytest.approx(2.5)
    # nine wins of ten still count
    nine = [p * 1.2 for p in PARENT[:9]] + [PARENT[9] - 1]
    assert verdict(PARENT, nine, "higher", 0.24)["verdict"] == "gain"
    # eight do not, however large the gap
    eight = [p * 2 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    assert verdict(PARENT, eight, "higher", 0.24)["verdict"] == "flat"


def test_a_gap_within_the_parents_iqr_is_no_gain():
    # wins every pair, but the median moves 2 while the quartiles lie 2.5 apart
    v = verdict(PARENT, [p + 2 for p in PARENT], "higher", 0.24)
    assert v["wins"] == 10 and v["gap"] == pytest.approx(2)
    assert v["verdict"] == "flat"


def test_ties_count_for_neither_side():
    v = verdict(PARENT, list(PARENT), "higher", 0.24)
    assert v["wins"] == 0 and v["gap"] == 0 and v["verdict"] == "flat"


def test_lower_is_better_flips_the_direction():
    faster = [p * 0.8 for p in PARENT]
    assert verdict(PARENT, faster, "lower", 0.24)["verdict"] == "gain"
    assert verdict(PARENT, faster, "higher", 0.24)["verdict"] == "flat"
    assert verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.24)["verdict"] == "worse"


def test_worse_past_the_bound_and_unresolved_spread():
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.24)["verdict"] == "worse"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.24)["verdict"] == "flat"
    wide = [50, 150, 60, 140, 100, 100, 70, 130, 90, 110]  # quartiles 67.5, 132.5
    assert verdict(wide, [p * 1.05 for p in wide], "lower", 0.24)["verdict"] == "unresolved"


def test_a_wide_parent_beaten_by_every_change_run_is_better():
    wide = [50, 150, 60, 140, 100, 100, 70, 130, 90, 110]  # quartiles 67.5, 132.5
    # every change run above 150, but the medians 55.5 apart, within the IQR of 65
    above = [151 + k for k in range(10)]
    v = verdict(wide, above, "higher", 0.24)
    assert v["wins"] == 10 and v["gap"] < v["iqr"] and v["verdict"] == "better"
    below = [49 - k for k in range(10)]
    assert verdict(wide, below, "lower", 0.24)["verdict"] == "better"
    # one change run inside the parent's range leaves it unresolved
    assert verdict(wide, above[:9] + [149], "higher", 0.24)["verdict"] == "unresolved"
    assert verdict(wide, above, "lower", 0.24)["verdict"] == "worse"


def test_one_pair_is_its_own_quartiles():
    assert bench_pairs.quartiles([3.0]) == [3.0, 3.0, 3.0]
    assert verdict([10.0], [20.0], "higher", 0.24)["verdict"] == "gain"


# A stand-in for perfbench/run.py: the last stdout line is a result object
# whose every metric reads VALUE.  With FAIL_SEED set it writes 30 lines to
# stderr and exits 1 when run with that seed.
STUB = '''
import argparse, json, sys
ap = argparse.ArgumentParser()
ap.add_argument("--workload"); ap.add_argument("--seed", type=int)
ap.add_argument("--seconds", type=float)
args = ap.parse_args()
if args.seed == FAIL_SEED:
    for i in range(30):
        print(f"stub stderr line {i}", file=sys.stderr)
    sys.exit(1)
names = ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"]
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {n: {"value": VALUE} for n in names}}))
'''

BENCH = {"run_seconds": 1, "end_to_end": [
    {"name": n, "better": b, "bound": 0.24} for n, b in (
        ("setup_s", "lower"), ("ops_per_s", "higher"), ("op_p50_ms", "lower"),
        ("op_p90_ms", "lower"), ("peak_rss_mb", "lower"))]}


def _stub_root(tmp_path, name, value, fail_seed=None):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        STUB.replace("FAIL_SEED", repr(fail_seed)).replace("VALUE", repr(value)))
    return str(root)


def test_a_failed_run_keeps_the_finished_pairs(tmp_path, capsys):
    roots = {"parent": _stub_root(tmp_path, "parent", 100.0),
             "change": _stub_root(tmp_path, "change", 120.0, fail_seed=2)}
    code = bench_pairs.compare(roots, ["w1", "w2"], 3, [1, 2], BENCH)
    out, err = capsys.readouterr()
    assert code == 1
    # pair 1 (seed 1) finished, pair 2 (seed 2) failed on the change side
    assert out.count("1 of 3 pairs") == 2  # each workload, run in turn
    assert out.count("ops_per_s") == 2
    assert "stub stderr line 29" in err and "stub stderr line 9" not in err
    assert "exited 1" in err and "2 runs failed" in err


def test_clean_runs_exit_zero(tmp_path, capsys):
    roots = {"parent": _stub_root(tmp_path, "parent", 100.0),
             "change": _stub_root(tmp_path, "change", 130.0)}
    assert bench_pairs.compare(roots, ["w"], 2, [1, 2], BENCH) == 0
    out, _ = capsys.readouterr()
    assert "2 of 2 pairs" in out
    # +30 %: a gain for ops_per_s, worse past the bound for the others
    assert out.count("gain") == 1 and out.count("worse") == 4


def test_each_seed_runs_each_side_first_equally_often(tmp_path, capsys):
    """With 2 x seeds pairs, each seed runs the parent first once and the
    change first once, for an even and an odd seed count."""
    roots = {"parent": _stub_root(tmp_path, "parent", 100.0),
             "change": _stub_root(tmp_path, "change", 100.0)}
    for seeds in ([11, 12], [1, 2, 3]):
        bench_pairs.run_pairs(roots, "w", 2 * len(seeds), seeds, 1)
        lines = capsys.readouterr().err.splitlines()
        first = {}
        for line in lines:  # "w pair k/p seed s: <side> ... <side> ..."
            seed, pair = line.split(" seed ")[1].split(": ")
            first.setdefault(int(seed), []).append(pair.split()[0])
        assert {s: sorted(sides) for s, sides in first.items()} == {
            s: ["change", "parent"] for s in seeds}
