"""Tests of the benchmark's own parts: seeded inputs and the tracer.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import os
import random

import pytest

import inputs
import run
from tracer import Tracer
from ttlab import cli, cover
from ttlab.topology import is_pants_decomposition


def _files(workload, seed, directory):
    inputs.write(workload, seed, str(directory))
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload, tmp_path):
    first = _files(workload, 7, tmp_path / "a")
    second = _files(workload, 7, tmp_path / "b")
    assert "commands.json" in first
    assert first == second


def test_other_seed_gives_other_random_pants(tmp_path):
    first = _files("rank_sweep", 7, tmp_path / "a")
    second = _files("rank_sweep", 8, tmp_path / "b")
    pants = [name for name in first if name.startswith("pants")]
    assert pants
    assert [first[n] for n in pants] != [second.get(n) for n in pants]


def test_random_pants_is_a_valid_decomposition():
    rng = random.Random(3)
    for genus in (2, 3, 4, 5):
        cfg = inputs.random_pants_cfg(genus, rng)
        assert cfg.n_curves == 3 * genus - 3
        assert is_pants_decomposition(cfg)


def _play(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_malformed_inputs_exit_2_with_error_type(tmp_path, monkeypatch):
    r = inputs.build("classify_mix", 7)
    broken = [c for c in r.commands if c["expect"] == 2]
    assert len(broken) == 12
    monkeypatch.chdir(tmp_path)
    for command in broken:
        (tmp_path / command["reads"][0]).write_text(r.files[command["reads"][0]])
        code, _, err = _play(command["argv"])
        assert code == 2
        assert "error.type = " in err


def test_tracer_only_observes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g3.spec").write_text(_play(["pants", "3", "--lengths", "3,4,9,14,25,37"])[1])
    plain = _play(["rank", "g3.spec"])
    tracer = Tracer()
    tracer.install()
    try:
        traced = _play(["rank", "g3.spec"])
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["cover.h1_anti_invariant"] == 1
    assert tracer.calls["linalg.rank"] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.covered_s)
    assert not hasattr(cover.h1_anti_invariant, "__wrapped__")


def test_layer_metrics_are_the_ones_benchmark_json_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g2.spec").write_text(_play(["pants", "2", "--lengths", "3,4,9"])[1])
    tracer = Tracer()
    tracer.install()
    try:
        _play(["rank", "g2.spec"])
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics(tracer, [(1.0, 0.9, 1.0)], [(1.0, 0.9, 1.0)])
    assert list(metrics) == list(run.per_layer_units())
    assert metrics["cover.h1_anti_invariant.calls"] == (1, "count")
    assert metrics["saddle.searches"] == (0, "count")
