"""Tests for the bench-compare CI gate (benchmarks/compare_bench.py)."""

import importlib.util
import json
import pathlib

spec = importlib.util.spec_from_file_location(
    "compare_bench",
    pathlib.Path(__file__).parent.parent / "benchmarks" / "compare_bench.py",
)
compare_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_bench)


def write(path: pathlib.Path, payload: dict) -> None:
    path.write_text(json.dumps(payload))


def scale_payload(*, events=200_000, deliveries=199_980, fraction=1.0,
                  receptions_per_sec=500_000.0) -> dict:
    return {
        "scale_run": {
            "events": events,
            "deliveries": deliveries,
            "delivered_fraction": fraction,
            "receptions_per_sec": receptions_per_sec,
        },
    }


def test_identical_artifacts_pass(tmp_path):
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    write(base / "BENCH_scale.json", scale_payload())
    write(cand / "BENCH_scale.json", scale_payload())
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 0


def test_regression_beyond_tolerance_fails(tmp_path, capsys):
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    write(base / "BENCH_scale.json", scale_payload())
    # Deliveries collapse by half: far beyond the 30% tolerance.
    write(cand / "BENCH_scale.json", scale_payload(deliveries=99_000))
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 1
    assert "deliveries" in capsys.readouterr().out


def test_event_count_growth_is_a_regression(tmp_path):
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    write(base / "BENCH_scale.json", scale_payload())
    # 'lower' direction: a 2x event-count blowup must fail.
    write(cand / "BENCH_scale.json", scale_payload(events=400_000))
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 1


def test_within_tolerance_passes(tmp_path):
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    write(base / "BENCH_scale.json", scale_payload())
    write(
        cand / "BENCH_scale.json",
        scale_payload(events=210_000, deliveries=180_000),
    )
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 0


def test_wall_clock_fields_are_not_gated(tmp_path):
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    write(base / "BENCH_scale.json", scale_payload())
    # A throttled runner: throughput collapses, the simulation is the
    # same.  Speed is judged by `python3 -m bench`, not here.
    write(cand / "BENCH_scale.json", scale_payload(receptions_per_sec=50_000.0))
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 0


def test_optional_entries_are_skipped_when_absent(tmp_path, capsys):
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    payload = scale_payload()
    payload["xxl"] = {"delivered_fraction": 1.0, "events": 1_000_000}
    write(base / "BENCH_scale.json", payload)
    # PR CI artifacts carry no xxl entry (nightly-only): skipped, not failed.
    write(cand / "BENCH_scale.json", scale_payload())
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 0
    assert "xxl.delivered_fraction absent" in capsys.readouterr().out


def test_new_candidate_only_metrics_are_informational(tmp_path, capsys):
    """A PR that *adds* bench entries (e.g. the multistream ones) must
    not fail against an older committed baseline that lacks them: the
    new values print as informational instead."""
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    write(base / "BENCH_scale.json", scale_payload())
    payload = scale_payload()
    payload["multistream"] = {"delivered_fraction": 1.0, "deliveries": 399_960}
    write(cand / "BENCH_scale.json", payload)
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 0
    out = capsys.readouterr().out
    assert "info" in out and "multistream.deliveries" in out
    assert "candidate=399960" in out
    assert "informational" in out


def test_new_metrics_gate_once_baselined(tmp_path):
    """The informational grace applies only while the baseline lacks the
    metric; once committed, regressions fail as usual."""
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    payload = scale_payload()
    payload["multistream"] = {"delivered_fraction": 1.0, "deliveries": 399_960}
    write(base / "BENCH_scale.json", payload)
    broken = scale_payload()
    broken["multistream"] = {"delivered_fraction": 0.5, "deliveries": 199_980}
    write(cand / "BENCH_scale.json", broken)
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 1


def test_missing_files_are_skipped(tmp_path, capsys):
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    write(base / "BENCH_scale.json", scale_payload())
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 0
    assert "no candidate artifact" in capsys.readouterr().out


def test_prune_xxl_strips_stale_nightly_entries(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    payload = scale_payload()
    payload["xxl"] = {"delivered_fraction": 1.0, "events": 1_000_000}
    write(out / "BENCH_scale.json", payload)
    assert compare_bench.main(["--prune-xxl", str(out)]) == 0
    pruned = json.loads((out / "BENCH_scale.json").read_text())
    assert "xxl" not in pruned
    assert pruned["scale_run"] == payload["scale_run"]
    assert "pruned" in capsys.readouterr().out
    # Idempotent on files with no xxl entry.
    assert compare_bench.main(["--prune-xxl", str(out)]) == 0


def test_accept_promotes_a_passing_run(tmp_path, capsys):
    """--accept is the only writer of the baseline directory: BENCH
    files merge key by key (nightly-only entries survive a per-push
    run), reports are copied, and a regressed run promotes nothing."""
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    committed = scale_payload()
    committed["xxl"] = {"delivered_fraction": 1.0, "events": 1_000_000}
    write(base / "BENCH_scale.json", committed)
    write(cand / "BENCH_scale.json", scale_payload(events=190_000))
    (cand / "scale_flood.txt").write_text("report\n")
    argv = ["--candidate", str(cand), "--baseline", str(base)]
    # Comparing alone never writes.
    assert compare_bench.main(argv) == 0
    assert json.loads((base / "BENCH_scale.json").read_text()) == committed
    assert compare_bench.main(argv + ["--accept"]) == 0
    accepted = json.loads((base / "BENCH_scale.json").read_text())
    assert accepted["scale_run"]["events"] == 190_000
    assert accepted["xxl"] == committed["xxl"]
    assert (base / "scale_flood.txt").read_text() == "report\n"
    assert "accepted BENCH_scale.json" in capsys.readouterr().out
    write(cand / "BENCH_scale.json", scale_payload(deliveries=99_000))
    assert compare_bench.main(argv + ["--accept"]) == 1
    assert json.loads((base / "BENCH_scale.json").read_text()) == accepted


def test_default_candidate_is_the_ignored_run_directory(tmp_path, monkeypatch):
    """With no arguments: benchmarks/run (what the benches wrote, ignored
    by git) against benchmarks/out (the committed baselines)."""
    monkeypatch.setattr(compare_bench, "BENCH_DIR", tmp_path)
    (tmp_path / "out").mkdir(), (tmp_path / "run").mkdir()
    write(tmp_path / "out" / "BENCH_scale.json", scale_payload())
    write(tmp_path / "run" / "BENCH_scale.json", scale_payload(deliveries=99_000))
    assert compare_bench.main([]) == 1
    repo = pathlib.Path(__file__).parent.parent
    assert "benchmarks/run/" in (repo / ".gitignore").read_text().split()


def test_structure_completeness_gate(tmp_path):
    base, cand = tmp_path / "base", tmp_path / "cand"
    base.mkdir(), cand.mkdir()
    brisa = {
        "scale_run": {
            "delivered_fraction": 1.0,
            "duplicates_per_node": 5.0,
            "events": 300_000,
            "structure_complete": True,
        },
    }
    write(base / "BENCH_scale_brisa.json", brisa)
    broken = json.loads(json.dumps(brisa))
    broken["scale_run"]["structure_complete"] = False
    write(cand / "BENCH_scale_brisa.json", broken)
    assert compare_bench.main(["--candidate", str(cand), "--baseline", str(base)]) == 1
