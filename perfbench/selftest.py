"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default) this runs one pass at seed 0 and
requires every check to pass, apart from the documented known defect. Then,
one at a time, it perturbs a single output just past the check's tolerance
and requires that check to fail, restoring the outputs afterwards. The
byte-identity check used for determinism and trace neutrality is tested the
same way. Exits 1 if any check accepts a perturbed result or has no
perturbation.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402  (needs the path set above)
import workloads  # noqa: E402


def edit_csv(name, edit):
    """edit(rows) changes the data rows, lists of floats, in place; the
    header line is kept as written."""

    def perturb(out):
        path = os.path.join(out.dir, name)
        with open(path) as fh:
            header, *lines = fh.read().splitlines()
        rows = [[float(c) for c in line.split(",")] for line in lines]
        edit(rows)
        with open(path, "w") as fh:
            fh.write("\n".join([header] + [",".join(repr(v) for v in row) for row in rows]) + "\n")

    return perturb


def bump(row, col, delta):
    def edit(rows):
        rows[row][col] += delta

    return edit


def scale_column(col, factor):
    def edit(rows):
        for row in rows:
            row[col] *= factor

    return edit


def edit_json(name, edit):
    def perturb(out):
        path = os.path.join(out.dir, name)
        with open(path) as fh:
            payload = json.load(fh)
        edit(payload)
        with open(path, "w") as fh:
            json.dump(payload, fh)

    return perturb


def edit_stdout(label, edit):
    def perturb(out):
        payload = json.loads(out.calls[label].stdout)
        edit(payload)
        out.calls[label].stdout = json.dumps(payload)

    return perturb


def edit_grid(name, edit):
    return lambda out: edit(out.grids[name].values)


def set_rc(label, rc):
    def perturb(out):
        out.calls[label].rc = rc

    return perturb


def su3_gallery_dim(payload):
    next(r for r in payload["results"] if r["name"] == "su3")["dimension"] = 9


def shift_flux_class(payload):
    payload["fluxes"]["class_values"][1] += 1e-8


def closure_dim(payload):
    payload["closure"]["dim"] += 1


def closure_residual(payload):
    payload["closure"]["residual"] = 1e-9


def bump_grid(values):
    values[0, 0] += 1e-11


def scale_grid(values):
    values *= 1 + 1e-6


PERTURBATIONS = {
    "scenario_defaults": {
        "manifest_hashes": edit_csv("ws_bloch.csv", bump(0, 1, 1e-3)),
        "su2_revival": edit_csv("su2_transport.csv", scale_column(1, 0.98)),
        "closure_gallery": edit_json("closure_gallery.json", su3_gallery_dim),
    },
    "large_sector": {
        "so5_populations": edit_csv("so5_quench.csv", bump(-1, -1, 1e-11)),
        "su3_fluxes": edit_json("su3_flux_graph.json", shift_flux_class),
    },
    "algebra_verify": {
        "verify:su3_schwinger": edit_stdout("su3_schwinger", closure_dim),
        "verify:jc_super": edit_stdout("jc_super", closure_residual),
    },
    "phase_space": {
        "known_defect:disk_default_k": set_rc("disk_default_k", 3),
        "sphere_closed_form": edit_csv("sphere.csv", bump(0, 3, 1e-9)),
        "plane_closed_form": edit_csv("plane.csv", bump(0, 3, 1e-11)),
        "cylinder_closed_form": edit_csv("cylinder.csv", bump(0, 3, 1e-11)),
        "disk_closed_form": edit_csv("disk.csv", bump(0, 3, 1e-11)),
        "disk_integral": edit_csv("disk.csv", scale_column(3, 1 + 1e-6)),
        "rho_disk_closed_form": edit_grid("rho_disk", bump_grid),
        "rho_disk_integral": edit_grid("rho_disk", scale_grid),
    },
}


def snapshot(out):
    files = {}
    for name in os.listdir(out.dir):
        with open(os.path.join(out.dir, name), "rb") as fh:
            files[name] = fh.read()
    return files, copy.deepcopy(out.calls), copy.deepcopy(out.grids)


def restore(out, saved):
    files, calls, grids = saved
    for name, data in files.items():
        with open(os.path.join(out.dir, name), "wb") as fh:
            fh.write(data)
    out.calls, out.grids = copy.deepcopy(calls), copy.deepcopy(grids)


def change_any_output(out):
    names = sorted(os.listdir(out.dir))
    if names:
        with open(os.path.join(out.dir, names[0]), "ab") as fh:
            fh.write(b"\n")
    else:
        next(iter(out.calls.values())).stdout += " "


def selftest(name, scratch):
    """Returns the number of problems found for one workload."""
    workload = workloads.WORKLOADS[name](0, os.path.join(scratch, "inputs"))
    os.makedirs(os.path.join(scratch, "out"))
    out = workload.run(os.path.join(scratch, "out"))
    baseline = workload.checks(out)
    problems = 0
    for check in baseline:
        if not check.ok and not check.known_defect:
            print(f"{name}: {check.name} fails on the unperturbed pass: {check.detail}")
            problems += 1
    perturbations = {c.name: set_rc(c.name[5:], 3) for c in baseline if c.name.startswith("exit:")}
    perturbations.update(PERTURBATIONS[name])
    for check in baseline:
        if check.name not in perturbations:
            print(f"{name}: {check.name} has no perturbation")
            problems += 1

    saved = snapshot(out)
    for check_name, perturb in perturbations.items():
        perturb(out)
        result = {c.name: c for c in workload.checks(out)}[check_name]
        rejected = not result.ok and not result.known_defect
        print(f"{name}: {check_name:30} {'rejects' if rejected else 'ACCEPTS'} the perturbed result: {result.detail}")
        problems += not rejected
        restore(out, saved)

    reference = workload.digests(out)
    change_any_output(out)
    changed = run.changed_outputs(reference, workload.digests(out))
    print(f"{name}: {'deterministic':30} {'rejects' if changed else 'ACCEPTS'} a changed output: {changed}")
    return problems + (not changed)


def main(names):
    problems = 0
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for name in names or workloads.WORKLOADS:
        scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "out"))
        try:
            os.makedirs(os.path.join(scratch, "inputs"))
            problems += selftest(name, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"selftest: {problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
