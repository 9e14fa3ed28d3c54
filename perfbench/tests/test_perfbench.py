"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench/tests -q

Every workload must emit every metric named in BENCHMARK.json with its
unit, in both modes, and each correctness gate must fire on a corrupted
output.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402
from modnls import harness, modspace, nonlinear, solver, spectral  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_picard_gate_fires_on_perturbed_oracle():
    wl = wls.PicardFull("toy")
    wl.setup(5)
    u0 = wl.inputs[0]
    u, rep = solver.picard_solve(wl.cfg, u0)
    oracle = solver.split_step_oracle(wl.cfg, u0)
    assert all(ok for _, ok in wls.picard_gates(rep, solver.oracle_deviation(u, oracle)))
    spectra = oracle.spectra.copy()
    spectra[-1] += 1e-2 * np.abs(spectra[-1]).max()
    bad = spectral.Trajectory(oracle.grid, oracle.times, spectra)
    gates = dict(wls.picard_gates(rep, solver.oracle_deviation(u, bad)))
    assert not gates["oracle_dev_le_1e-4"]


def test_bisect_gate_fires_on_wrong_delta():
    wl = wls.Bisect("toy")
    wl.setup(42)
    result = wl.unit(0)
    assert all(ok for _, ok in wl.gates(0, result))
    wrong = dict(result, delta=result["delta"] * 1.5)
    assert not dict(wl.gates(0, wrong))["history_replays"]
    recorded = (result["delta"] * 1.5, "".join(
        "A" if h["accepted"] else "R" for h in result["history"]))
    gates = dict(wls.bisect_gates(result, wl.p, wl.cfg.eps_fix, recorded))
    assert not gates["matches_recorded"]


def test_scatter_gate_fires_on_flipped_byte(tmp_path):
    wl = wls.ScatterCli("toy", out_root=tmp_path)
    wl.setup(3)
    result = wl.unit(0)
    assert all(ok for _, ok in wl.check(0, result))
    path = result[1] / "u0_plus.bin"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert not dict(wl.check(0, result))["repeatable"]


def test_ensemble_ratio_gate_fires_on_outlier():
    wl = wls.Ensembles("toy")
    wl.setup(77)
    wl.pooled = {(64, "lipschitz"): [1.0, 1.1, 0.9, 11.0]}
    assert not dict(wl.final_gates())["n64.lipschitz.max_le_10_median"]


def test_tracer_patches_every_binding_and_restores():
    original, original_planchon = spectral.lp_norm, modspace.planchon_norm
    tracer = tr.Tracer()
    with tracer.installed():
        assert solver.lp_norm is spectral.lp_norm is harness.lp_norm
        assert spectral.lp_norm.__wrapped__ is original
        assert nonlinear.planchon_norm is modspace.planchon_norm
        assert nonlinear.planchon_norm.__wrapped__ is original_planchon
        field = spectral.SpectralField(spectral.make_grid(1, 4 * math.pi, 16),
                                       spectrum=np.ones(16))
        solver.mass(field)
    assert spectral.lp_norm is original and solver.lp_norm is original
    assert nonlinear.planchon_norm is original_planchon
    names = [s[0] for s in tracer.spans]
    assert names == ["solver.mass", "spectral.lp_norm", "spectral.transform"]
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    assert sum(own) <= tracer.spans[0][2] - tracer.spans[0][1] + 1e-9
