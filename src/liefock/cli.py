"""Command-line front end.

Subcommands: algebra, closure, lattice, evolve, husimi, oracle, scenario.
Exit codes: 0 success, 2 configuration error, 3 numeric contract violation,
4 resource guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .algebra import CATALOG, build_algebra, lie_closure, lmg_seed, rabi_seed, verify_model
from .coherent import SPACES, husimi_chart
from .errors import (
    ConfigError,
    InfeasibleSectorError,
    NumericContractError,
    ResourceGuardError,
)
from .lattice import (
    connected_components,
    graph_to_adjacency_csv,
    graph_to_json_dict,
    plaquette_fluxes,
    system_graph,
    weight_coordinates,
)
from .oracles import LADDER_KINDS, bloch, ladder_oracles, so5_manybody, so5_revival, so5_singles, squeezing
from .output import export_heatmap, grid_csv_bytes, json_text, write_json
from .scenarios import (
    BUILTIN_SCENARIOS,
    build_basis,
    build_initial_state,
    build_system,
    builtin_scenario,
    parse_config,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4


def _load_params(text):
    if not text:
        return {}
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}")
    if not isinstance(params, dict):
        raise ConfigError("--params must be a JSON object")
    # algebra parameters named k or S may be rationals written as strings
    for key, val in params.items():
        if isinstance(val, str) and "/" in val:
            params[key] = Fraction(val)
    return params


def _cmd_algebra(args):
    model = build_algebra(args.name, **_load_params(args.params))
    if args.verify:
        report = verify_model(model)
    else:
        report = {
            "name": model.name,
            "generators": list(model.labels),
            "dim": model.dim,
            "basis_dim": model.basis.dim,
            "cartan": [model.labels[i] for i in model.cartan],
            "roots": [
                {
                    "raising": model.labels[rp.raising],
                    "lowering": model.labels[rp.lowering],
                    "root": [str(r) for r in rp.root],
                }
                for rp in model.root_pairs
            ],
        }
    print(json_text(report), end="")
    return EXIT_OK


def _cmd_closure(args):
    if args.seed == "rabi":
        ops, labels, mask = rabi_seed(cutoff=args.cutoff or 12)
        graded = args.graded
    elif args.seed == "lmg":
        ops, labels, mask = lmg_seed(S=args.cutoff or 8)
        graded = args.graded
    else:
        model = build_algebra(args.seed, **_load_params(args.params))
        ops, labels, mask = model.generators, list(model.labels), model.interior()
        graded = model.graded or args.graded
    report = lie_closure(ops, cap=args.cap, graded=graded, interior=mask, labels=labels)
    print(
        json.dumps(
            {
                "seed": args.seed,
                "iterations": report.iterations,
                "closed": report.closed,
                "dimension": report.dimension,
                "cap": report.cap,
                "added": report.added_labels,
                "max_residual": None if not report.closed else report.max_residual,
            },
            indent=1,
        )
    )
    return EXIT_OK


def _cmd_lattice(args):
    with open(args.ham) as fh:
        system = json.load(fh)
    basis, H, model, terms = build_system(system)
    graph = system_graph(basis, H, model, terms, tol=args.tol)
    wl = None
    if model is not None and model.cartan:
        wl = weight_coordinates(graph, model.cartan_ops())
    payload = graph_to_json_dict(graph, wl)
    if args.fluxes:
        rep = plaquette_fluxes(graph)
        payload["fluxes"] = {
            "cycle_count": rep.cycle_count,
            "class_values": rep.class_values,
            "independent_classes": rep.independent_classes,
        }
    payload["components"] = [len(c) for c in connected_components(graph)]
    if args.export:
        write_json(args.export, payload)
        print(f"wrote {args.export}")
    else:
        print(json_text(payload), end="")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(graph_to_adjacency_csv(graph))
        print(f"wrote {args.csv}")
    return EXIT_OK


def _cmd_evolve(args):
    with open(args.scenario) as fh:
        config = parse_config(json.load(fh))
    if args.out:
        config.outputs = dict(config.outputs)
        config.outputs["csv"] = args.out
    archive = run_scenario(config, out_dir=args.out_dir, tol=args.tol)
    print(json_text(archive.to_dict()), end="")
    return EXIT_OK


def _cmd_husimi(args):
    with open(args.state) as fh:
        spec = json.load(fh)
    state = build_initial_state(spec["state"], build_basis(spec["basis"]))
    grid = husimi_chart(state, args.space, args.nodes, spec.get("space_params", {}))
    with open(args.out, "wb") as fh:
        fh.write(grid_csv_bytes(grid))
    print(f"wrote {args.out} (integral {grid.integral():.6f})")
    if args.heatmap:
        export_heatmap(grid.values, args.heatmap)
        print(f"wrote {args.heatmap}")
    return EXIT_OK


def _cmd_oracle(args):
    params = _load_params(args.params)
    if args.kind == "bloch":
        t = np.atleast_1d(np.asarray(params.pop("t")))
        sample = bloch(t=t, **params)
        payload = {
            "Omega": sample.omega,
            "t": list(sample.t),
            "Sx": list(sample.sx),
            "Sy": list(sample.sy),
            "Sz": list(sample.sz),
            "a_re": list(sample.a.real),
            "a_im": list(sample.a.imag),
            "b_re": list(sample.b.real),
            "b_im": list(sample.b.imag),
        }
    elif args.kind == "squeezing":
        t = np.atleast_1d(np.asarray(params.pop("t")))
        sample = squeezing(t=t, **params)
        payload = {
            "stable": sample.stable,
            "t": list(sample.t),
            "r": list(sample.r),
            "theta": list(sample.theta),
            "chi": list(sample.chi),
            "n_mean": list(sample.n_mean),
            "var_n": list(sample.var_n),
        }
    elif args.kind == "so5":
        N = params.pop("N", None)
        singles = so5_singles(**params)
        payload = {
            "closed_form": None if singles.closed_form is None else list(singles.closed_form),
            "quoted_matrix": list(singles.quoted_matrix),
            "generator_form": list(singles.generator_form),
            "closed_vs_quoted_delta": [
                float(d)
                for d in (
                    np.sort(singles.closed_form) - np.sort(singles.quoted_matrix)
                )
            ]
            if singles.closed_form is not None
            else None,
        }
        if N is not None:
            payload["manybody_generator_form"] = list(so5_manybody(singles.generator_form, int(N)))
        revival = so5_revival(params["phi"], params.get("J1", 1.0))
        payload["revival_time"] = revival
    elif args.kind in LADDER_KINDS:
        values = ladder_oracles(args.kind, **params)
        payload = {"kind": args.kind, "values": np.atleast_1d(values).tolist()}
    else:
        raise ConfigError(f"unknown oracle kind {args.kind!r}")
    print(json.dumps(payload, indent=1 if not args.compact else None))
    return EXIT_OK


def _cmd_scenario(args):
    if args.action == "list":
        for name in sorted(BUILTIN_SCENARIOS):
            print(name)
        return EXIT_OK
    if args.config:
        with open(args.config) as fh:
            config = parse_config(json.load(fh))
    elif args.name:
        overrides = _load_params(args.params)
        config = builtin_scenario(args.name, **overrides)
    else:
        raise ConfigError("scenario run needs --name or --config")
    archive = run_scenario(config, out_dir=args.out_dir, tol=args.tol)
    print(json_text(archive.to_dict()), end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liefock",
        description="Fock-state lattices from operator algebras: build, analyze, evolve.",
    )
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--tol", type=float, default=None, help="edge/drop tolerance override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="build and inspect a catalog algebra")
    p.add_argument("name", choices=sorted(CATALOG))
    p.add_argument("--params", default="", help="JSON object of representation parameters")
    p.add_argument("--verify", action="store_true", help="run the self-check report")
    p.set_defaults(fn=_cmd_algebra)

    p = sub.add_parser("closure", help="iterated-bracket closure of a generator seed")
    p.add_argument("seed", help="catalog algebra name, or 'rabi' / 'lmg'")
    p.add_argument("--cap", type=int, default=64)
    p.add_argument("--cutoff", type=int, default=None, help="cutoff (rabi) or S (lmg)")
    p.add_argument("--graded", action="store_true")
    p.add_argument("--params", default="")
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("lattice", help="extract the lattice graph of a Hamiltonian spec")
    p.add_argument("--ham", required=True, help="JSON system spec (algebra+terms or basis+bilinears)")
    p.add_argument("--export", default=None, help="graph JSON output path")
    p.add_argument("--csv", default=None, help="adjacency CSV output path")
    p.add_argument("--fluxes", action="store_true", help="include plaquette flux classes")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("evolve", help="run an evolution scenario from a config file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None, help="override the CSV output name")
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("husimi", help="evaluate a Husimi grid for a stored state")
    p.add_argument("--state", required=True, help="JSON state spec")
    p.add_argument("--space", required=True, choices=SPACES)
    p.add_argument("--out", required=True, help="CSV output (coords, weight, value)")
    p.add_argument("--heatmap", default=None, help="optional 16-bit PGM output")
    p.add_argument("--nodes", type=int, nargs=2, default=[101, 101],
                   help="node counts along coord_a and coord_b")
    p.set_defaults(fn=_cmd_husimi)

    p = sub.add_parser("oracle", help="closed-form reference values")
    p.add_argument("kind", help="bloch | squeezing | so5 | " + " | ".join(sorted(LADDER_KINDS)))
    p.add_argument("--params", default="", help="JSON object of formula parameters")
    p.add_argument("--json", dest="compact", action="store_true", help="compact JSON output")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("scenario", help="run or list built-in scenarios")
    p.add_argument("action", choices=["run", "list"])
    p.add_argument("--name", default=None)
    p.add_argument("--config", default=None, help="path to a scenario config JSON")
    p.add_argument("--params", default="", help="JSON overrides for a built-in scenario")
    p.set_defaults(fn=_cmd_scenario)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InfeasibleSectorError, ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericContractError as exc:
        print(f"numeric contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
