"""Each output check of the benchmark rejects a deliberately corrupted output.

    python3 -m pytest bench/test_checks.py -q

Every fixture runs one real op through the CLI and confirms that its untouched
outputs pass; each test then corrupts one thing and expects CheckError. The
last two tests show that run.py counts an exception escaping the CLI as a
failed command and a malformed output as a failed check.
"""
import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from gridse.cli import cli_dispatch  # noqa: E402
from gridse.controller import evaluate_constant_policy  # noqa: E402
from gridse.scenario import load_switched_system  # noqa: E402
from workloads import CheckError  # noqa: E402


def run(commands):
    stdouts = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            assert cli_dispatch(argv) == 0, buf.getvalue()
        stdouts.append(buf.getvalue())
    return stdouts


def prepared(tmp_path_factory, cls):
    work = tmp_path_factory.mktemp(cls.name)
    wl = cls(ROOT, 3)
    wl.setup(work)
    stdouts = run(wl.op(0, work))
    wl.check_op(0, work, stdouts)
    wl.check_run()
    return wl, work, stdouts


def corrupted_copy(src: Path, tmp_path: Path, name: str, edit) -> Path:
    """Copy the op outputs to tmp_path and apply `edit` to the text of `name`."""
    for f in src.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / f.name)
    target = tmp_path / name
    target.write_text(edit(target.read_text()))
    return tmp_path


def edit_csv(text: str, row: int, col: int, value) -> str:
    rows = list(csv.reader(text.splitlines()))
    rows[row][col] = value(rows[row][col]) if callable(value) else value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------- snapshots

@pytest.fixture(scope="module")
def snap(tmp_path_factory):
    return prepared(tmp_path_factory, workloads.Ieee14Snapshots)


@pytest.mark.parametrize("row, col, value", [
    (5, 3, lambda v: f"{float(v) + 0.05:.4f}"),    # perturbed estimated voltage
    (5, 2, lambda v: f"{float(v) + 0.0002:.4f}"),  # truth not the power-flow solution
    (20, 4, lambda v: f"{float(v) + 0.01:.4f}"),   # perturbed truth angle
    (30, 5, lambda v: f"{float(v) + 3.0:.4f}"),    # perturbed estimated angle
    (1, 5, "-0.0001"),                             # slack angle not exactly 0
    (9, 8, "false"),                               # not converged
    (0, 2, "v_pu"),                                # header
])
def test_snapshot_report_corruption_is_rejected(snap, tmp_path, row, col, value):
    wl, work, stdouts = snap
    bad = corrupted_copy(work, tmp_path, "op0.csv", lambda t: edit_csv(t, row, col, value))
    with pytest.raises(CheckError):
        wl.check_op(0, bad, stdouts)


def test_snapshot_report_missing_row_is_rejected(snap, tmp_path):
    wl, work, stdouts = snap
    bad = corrupted_copy(work, tmp_path, "op0.csv", lambda t: "".join(t.splitlines(True)[:-1]))
    with pytest.raises(CheckError):
        wl.check_op(0, bad, stdouts)


def test_chi_square_band_is_enforced():
    workloads.check_chi2_band("x", [0.9, 1.1])
    for ratios in ([1.3], [0.8, 0.85]):
        with pytest.raises(CheckError):
            workloads.check_chi2_band("x", ratios)


# ------------------------------------------------------------ mesh estimate

@pytest.fixture(scope="module")
def mesh(tmp_path_factory):
    return prepared(tmp_path_factory, workloads.MeshEstimate)


def edit_json(edit):
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


@pytest.mark.parametrize("edit", [
    lambda d: d["buses"][40].update(v_pu=d["buses"][40]["v_pu"] + 0.05),       # perturbed voltage
    lambda d: d["buses"][40].update(angle_true_deg=d["buses"][40]["angle_true_deg"] + 1e-5),  # wrong P
    lambda d: d["buses"][0].update(angle_deg=1e-12),                             # slack angle
    lambda d: d.update(objective=d["objective"] * 0.999, objective_history=d["objective_history"][:-1] + [d["objective"] * 0.999]),
    lambda d: d.update(converged=False),
    lambda d: d.update(measurement_count=d["measurement_count"] - 1),
])
def test_mesh_estimate_corruption_is_rejected(mesh, tmp_path, edit):
    wl, work, stdouts = mesh
    bad = corrupted_copy(work, tmp_path, "op0.json", edit_json(edit))
    with pytest.raises(CheckError):
        wl.check_op(0, bad, stdouts)


def test_mesh_estimate_off_minimum_is_rejected(mesh, tmp_path):
    """Move the estimate by a fifth of a standard deviation and report the J of
    the moved point, so that only the local-minimum check can object."""
    wl, work, stdouts = mesh
    ref = wl.ref

    def nudge(d):
        d["buses"][60]["v_pu"] += 0.2 * ref.sd_vm[60]
        vm = np.array([b["v_pu"] for b in d["buses"]])
        va = np.radians([b["angle_deg"] for b in d["buses"]])
        z = ref.model.measurements(ref.x, workloads.op_seed(wl.seed, 0))
        d["objective"] = d["objective_history"][-1] = ref.model.objective(z, ref.model.vector(vm, va))
    bad = corrupted_copy(work, tmp_path, "op0.json", edit_json(nudge))
    with pytest.raises(CheckError, match="J decreases"):
        wl.check_op(0, bad, stdouts)


# --------------------------------------------------------------- controller

@pytest.fixture(scope="module")
def ctl(tmp_path_factory):
    return prepared(tmp_path_factory, workloads.ControllerStudy)


@pytest.mark.parametrize("c", [0, 1])
def test_wrong_p_is_rejected(ctl, tmp_path, c):
    wl, work, stdouts = ctl

    def edit(d):
        d["P"][0][0] *= 1 + 1e-6
    bad = corrupted_copy(work, tmp_path, f"op0_{c}_solve.json", edit_json(edit))
    with pytest.raises(CheckError, match="Lyapunov"):
        wl.check_op(0, bad, stdouts)


def test_wrong_switching_function_is_rejected(ctl, tmp_path):
    wl, work, stdouts = ctl
    bad = corrupted_copy(work, tmp_path, "op0_1_solve.json", edit_json(lambda d: d.update(zeta=d["zeta"] + 1e-6)))
    with pytest.raises(CheckError, match="delta"):
        wl.check_op(0, bad, stdouts)


@pytest.mark.parametrize("c", [0, 1])
def test_flipped_u_is_rejected(ctl, tmp_path, c):
    """Flip u on the last step and keep stage cost and totals consistent, so
    only the hysteresis check can object."""
    wl, work, stdouts = ctl
    cfg = wl.configs[c]
    rows = list(csv.reader((work / f"op0_{c}_traj.csv").read_text().splitlines()))
    n = cfg.n
    last, prev = rows[-1], rows[-2]
    u = 1 - int(last[1 + n])
    last[1 + n] = str(u)
    x = np.array(last[1:1 + n], dtype=float)
    cost = float(cfg.cost(x[None, :])[0] + cfg.beta * (u != int(prev[1 + n])))
    last[2 + n] = repr(cost)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    bad = corrupted_copy(work, tmp_path, f"op0_{c}_traj.csv", lambda _: out.getvalue())
    data = np.array(rows[1:], dtype=float)
    summary = json.loads(stdouts[3 * c + 1])
    summary["discounted_total"] = float(cfg.discount @ data[:, 2 + n])
    summary["switch_count"] += 1 if (u != int(prev[1 + n])) else -1
    changed = list(stdouts)
    changed[3 * c + 1] = json.dumps(summary)
    with pytest.raises(CheckError, match="hysteresis"):
        wl.check_op(0, bad, changed)


def test_perturbed_state_is_rejected(ctl, tmp_path):
    wl, work, stdouts = ctl
    bad = corrupted_copy(work, tmp_path, "op0_1_traj.csv", lambda t: edit_csv(t, 500, 2, lambda v: repr(float(v) + 1e-9)))
    with pytest.raises(CheckError, match="A x"):
        wl.check_op(0, bad, stdouts)


def test_wrong_discounted_total_is_rejected(ctl):
    wl, work, stdouts = ctl
    changed = list(stdouts)
    summary = json.loads(changed[1])
    summary["discounted_total"] *= 1 + 1e-6
    changed[1] = json.dumps(summary)
    with pytest.raises(CheckError, match="discounted_total"):
        wl.check_op(0, work, changed)


@pytest.mark.parametrize("c", [0, 1])
def test_oracle_off_fixed_point_is_rejected(ctl, tmp_path, c):
    wl, work, stdouts = ctl
    row = 1 + (workloads.SHAPES[c][1] ** (c + 1)) // 2
    bad = corrupted_copy(work, tmp_path, f"op0_{c}_grid.csv",
                         lambda t: edit_csv(t, row, c + 1, lambda v: repr(float(v) + 1e-6)))
    with pytest.raises(CheckError, match="Bellman"):
        wl.check_op(0, bad, stdouts)


def test_oracle_residual_is_checked(ctl):
    wl, work, stdouts = ctl
    changed = list(stdouts)
    report = json.loads(changed[2])
    report["final_residual"] = 2e-8
    changed[2] = json.dumps(report)
    with pytest.raises(CheckError, match="final_residual"):
        wl.check_op(0, work, changed)


def test_policy_worse_than_a_constant_policy_is_rejected(ctl, monkeypatch):
    wl, work, stdouts = ctl
    cheap = json.loads(stdouts[4])["discounted_total"] * 0.5
    monkeypatch.setattr(wl.configs[1], "constant_policy_cost", lambda x0, z0, u: cheap)
    with pytest.raises(CheckError, match="above constant"):
        wl.check_op(0, work, stdouts)


@pytest.mark.parametrize("c", [0, 1])
def test_constant_policy_reference_matches_gridse(ctl, c):
    """The benchmark's vectorized constant-policy cost agrees with gridse's loop."""
    wl, _, _ = ctl
    cfg = wl.configs[c]
    system, _ = load_switched_system(wl.config_paths[c])
    x0, z0 = wl.start(0, c)
    for u in (0, 1):
        ours = cfg.constant_policy_cost(x0, z0, u)
        assert ours == pytest.approx(evaluate_constant_policy(system, u, x0, z0, workloads.STEPS), rel=1e-12)


# ------------------------------------------------------------------ harness

def test_escaping_exception_counts_as_a_failed_command():
    import run
    broken = type("BrokenCli", (), {"cli_dispatch": staticmethod(lambda argv: 1 / 0)})
    code, text = run.run_cli(broken, ["estimate"])
    assert code == 1 and "ZeroDivisionError" in text


def test_malformed_output_reads_as_a_check_failure(ctl, tmp_path):
    import run
    wl, work, stdouts = ctl
    bad = corrupted_copy(work, tmp_path, "op0_0_solve.json", lambda text: text[: len(text) // 2])
    problems = run.check_outputs(wl, [(0, 1.0, True, stdouts, False)], bad)
    assert len(problems) == 1 and "JSONDecodeError" in problems[0]
