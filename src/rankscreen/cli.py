"""Command-line interface: CSV ingestion and the screen / simulate / test
workflows.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys

import numpy as np

from .bench import METHOD_NAMES, get_method, run_replications
from .dataset import Dataset
from .errors import InvalidInput, RankscreenError
from .rc_screen import wild_bootstrap_test
from .report import ScreeningReport, TopD, UtilityThreshold, default_top_d
from .simgen import make_scenario, scenario_from_config
from .spline import BasisConfig

__all__ = ["main", "load_csv", "save_csv"]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _parse_cell(path: str, cell: str, row: int, name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise InvalidInput(
            f"{path}: row {row}, column '{name}': non-numeric value {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise InvalidInput(
            f"{path}: row {row}, column '{name}': non-finite value {cell!r}"
        )
    return value


def _parse_block(path: str, header: list, rows: list,
                 first_row: int) -> np.ndarray:
    """Parse consecutive data rows, the first of them at file row
    ``first_row``, into a ``(len(rows), len(header))`` float array.

    The rows are parsed as one array; the cell-by-cell scan runs only when
    that fails or finds a non-finite value, to name the first bad row or
    cell in file order.
    """
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        data = np.empty(0)
    if data.shape == (len(rows), len(header)) and np.isfinite(data).all():
        return data
    data = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        file_row = first_row + i
        if len(row) != len(header):
            raise InvalidInput(
                f"{path}: row {file_row} has {len(row)} cells, expected "
                f"{len(header)}"
            )
        for j, cell in enumerate(row):
            data[i, j] = _parse_cell(path, cell, file_row, header[j])
    return data


# Cells parsed per block: bounds the cell strings alive at once, which take
# about ten times the bytes of their parsed floats.
_CELLS = 2 ** 17


def load_csv(path: str, response_name: str,
             exposure_name: str | None = None) -> Dataset:
    """Read a headed CSV into a Dataset.

    The file is read as UTF-8; a leading byte-order mark, as spreadsheets
    write, is skipped.  Header names must be distinct.  The response (and
    optional exposure) columns are extracted by name; all remaining columns
    become covariates in header order.  Cells must parse as finite numbers;
    the first violation in file order is reported with its row and column
    (rows are counted as in the file, header = row 1).

    Rows are parsed in blocks of about ``_CELLS`` cells (at least two rows),
    so the cell strings of one block, not of the whole file, are alive at
    once.  The returned arrays share no memory with the parse; ``x`` is
    column-major (Fortran order).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInput(f"{path}: file is empty") from None
        if response_name not in header:
            raise InvalidInput(f"{path}: no column named '{response_name}'")
        if exposure_name is not None and exposure_name not in header:
            raise InvalidInput(f"{path}: no column named '{exposure_name}'")
        first = {}
        for j, name in enumerate(header):
            if name in first:
                raise InvalidInput(
                    f"{path}: columns {first[name] + 1} and {j + 1} are "
                    f"both named '{name}'"
                )
            first[name] = j
        block_rows = max(2, _CELLS // len(header))
        block = list(itertools.islice(reader, block_rows))
        if len(block) < 2:
            raise InvalidInput(f"{path}: need at least 2 data rows")
        y_idx = first[response_name]
        z_idx = first[exposure_name] if exposure_name is not None else None
        x_idx = [j for j in range(len(header)) if j != y_idx and j != z_idx]
        if not x_idx:
            raise InvalidInput(f"{path}: no covariate columns remain")
        y_parts, z_parts, x_parts = [], [], []
        n = 0
        while block:
            data = _parse_block(path, header, block, n + 2)
            n += len(block)
            block = None  # free this block's strings before reading more
            # copies, not views, so that no full-width block stays alive
            y_parts.append(data[:, y_idx].copy())
            if z_idx is not None:
                z_parts.append(data[:, z_idx].copy())
            x_parts.append(data[:, x_idx])
            block = list(itertools.islice(reader, block_rows))
    # column-major, as a column selection of the whole table was: each
    # covariate is contiguous, and column reductions (Pearson's moments)
    # depend on the layout in their last bits
    x = np.concatenate(x_parts, out=np.empty((n, len(x_idx)), order="F"))
    return Dataset(
        y=np.concatenate(y_parts),
        x=x,
        z=np.concatenate(z_parts) if z_idx is not None else None,
        y_name=response_name,
        z_name=exposure_name,
        x_names=[header[j] for j in x_idx],
    )


def save_csv(dataset: Dataset, path: str):
    """Write a Dataset back to CSV with full round-trip precision.

    Data cells are ``repr`` of each float, which never needs quoting, so the
    rows are joined directly with the ``csv`` module's default ``\\r\\n``
    line ending.
    """
    header = [dataset.y_name]
    columns = [dataset.y]
    if dataset.z is not None:
        header.append(dataset.z_name or "z")
        columns.append(dataset.z)
    header.extend(dataset.x_names)
    columns.append(dataset.x)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in np.column_stack(columns).tolist())


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _report_json(report: ScreeningReport, dataset: Dataset,
                 seed: int | None) -> dict:
    if isinstance(report.selection, TopD):
        selection = {"mode": "top_d", "d": report.selection.d}
    else:
        selection = {"mode": "threshold", "value": report.selection.value}
    return {
        "schema": SCHEMA_VERSION,
        "method": report.method,
        "n": report.n,
        "p": report.p,
        "seed": seed,
        "selection": selection,
        "ranking": [dataset.x_names[j] for j in report.ranking],
        "selected": [dataset.x_names[j] for j in report.selected],
        "utilities": {dataset.x_names[j]: float(report.utilities[j])
                      for j in range(report.p)},
    }


def _write_json(payload: dict, path: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    fresh = int(np.random.SeedSequence().entropy) % (2 ** 63)
    print(f"seed = {fresh} (auto-generated; pass --seed to replay)")
    return fresh


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_screen(args, parser) -> int:
    if args.method.startswith("rpc") and args.exposure is None:
        parser.error(f"method '{args.method}' requires --exposure")
    if args.top_d is not None and args.threshold is not None:
        parser.error("pass at most one of --top-d / --threshold")
    dataset = load_csv(args.input, args.response, args.exposure)
    if args.top_d is not None:
        selection = TopD(args.top_d)
    elif args.threshold is not None:
        selection = UtilityThreshold(args.threshold)
    else:
        selection = TopD(default_top_d(dataset.n))
    basis = BasisConfig(degree=args.degree, n_basis=args.n_basis)
    report = get_method(args.method, basis_config=basis)(dataset, selection)
    payload = _report_json(report, dataset, args.seed)
    _write_json(payload, args.output)
    k = min(args.top_k, report.p)
    print(f"{report.method}: top {k} of {report.p} predictors "
          f"(n = {report.n}, selected = {len(report.selected)})")
    for rank, j in enumerate(report.ranking[:k], start=1):
        print(f"  {rank:3d}. {dataset.x_names[j]}  "
              f"utility = {report.utilities[j]:.6f}")
    if args.csv_output:
        with open(args.csv_output, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "column", "utility", "selected"])
            selected = set(int(j) for j in report.selected)
            for rank, j in enumerate(report.ranking, start=1):
                writer.writerow([rank, dataset.x_names[j],
                                 repr(float(report.utilities[j])),
                                 int(j in selected)])
    return 0


def _cmd_simulate(args, parser) -> int:
    methods = args.method or ["rc"]
    for m in methods:
        if m not in METHOD_NAMES:
            parser.error(f"unknown method '{m}'; valid: "
                         f"{', '.join(METHOD_NAMES)}")
    try:
        if args.scenario_file:
            with open(args.scenario_file, encoding="utf-8") as fh:
                scenario = scenario_from_config(fh.read())
        elif args.scenario:
            scenario = make_scenario(args.scenario, n=args.n, p=args.p,
                                     rho0=args.rho0, w0=args.w0,
                                     error=args.error, r2=args.r2,
                                     case=args.case)
        else:
            parser.error("pass --scenario or --scenario-file")
    except InvalidInput as exc:
        parser.error(str(exc))
    if any(m.startswith("rpc") for m in methods) and not scenario.needs_exposure:
        parser.error(f"scenario {scenario.id} has no exposure; rpc-* methods "
                     "do not apply")
    reps = args.reps if args.reps is not None else (200 if args.full else 50)
    seed = _resolve_seed(args.seed)
    basis = BasisConfig(degree=args.degree, n_basis=args.n_basis)
    report = run_replications(scenario, methods, reps, seed, d_n=args.d_n,
                              basis_config=basis)
    rows = report.to_csv_rows()
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    print(f"scenario {scenario.id}: n = {scenario.n}, p = {scenario.p}, "
          f"reps = {report.n_reps}, d_n = {report.d_n}"
          + (f", failures = {report.n_failures}" if report.n_failures else ""))
    for r in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
    payload = report.to_json_dict()
    payload["seed"] = seed
    if args.output:
        _write_json(payload, args.output)
    if args.csv_output:
        with open(args.csv_output, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    return 0


def _cmd_test(args, parser) -> int:
    if args.covariate is None and not args.all:
        parser.error("pass --covariate NAME or --all")
    dataset = load_csv(args.input, args.response, args.exposure)
    seed = _resolve_seed(args.seed)
    if args.all:
        columns = list(range(dataset.p))
    else:
        if args.covariate not in dataset.x_names:
            raise InvalidInput(f"no covariate named '{args.covariate}'")
        columns = [dataset.x_names.index(args.covariate)]
    results = []
    for j in columns:
        res = wild_bootstrap_test(dataset.y, dataset.x[:, j],
                                  n_boot=args.n_boot, alpha=args.alpha,
                                  seed=seed)
        results.append((j, res))
        decision = "reject" if res.reject else "fail to reject"
        print(f"{dataset.x_names[j]}: statistic = {res.statistic:.6f}, "
              f"critical value = {res.critical_value:.6f}, "
              f"p = {res.p_value:.4f} -> {decision}")
    if args.output:
        payload = {
            "schema": SCHEMA_VERSION,
            "alpha": args.alpha,
            "n_boot": args.n_boot,
            "seed": seed,
            "results": [
                {
                    "column": dataset.x_names[j],
                    "statistic": res.statistic,
                    "critical_value": res.critical_value,
                    "p_value": res.p_value,
                    "reject": res.reject,
                }
                for j, res in results
            ],
        }
        _write_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankscreen",
        description="Rank-based robust (partial) correlation screening",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; omit for entropy (printed for replay)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect "
                            "(all computation is serial)")
        p.add_argument("--degree", type=int, default=3,
                       help="spline degree for rpc-* methods")
        p.add_argument("--n-basis", type=int, default=4,
                       help="spline basis dimension for rpc-* methods")

    p_screen = sub.add_parser("screen", help="rank predictors in a CSV file")
    p_screen.add_argument("--input", required=True)
    p_screen.add_argument("--response", required=True,
                          help="response column name")
    p_screen.add_argument("--exposure", default=None,
                          help="exposure column name (rpc-* methods)")
    p_screen.add_argument("--method", choices=METHOD_NAMES, default="rc")
    p_screen.add_argument("--top-d", type=int, default=None,
                          help="keep this many top predictors "
                               "(default floor(n/ln n))")
    p_screen.add_argument("--threshold", type=float, default=None,
                          help="keep predictors with utility above this")
    p_screen.add_argument("--top-k", type=int, default=10,
                          help="rows to print in the stdout summary")
    p_screen.add_argument("--output", default=None, help="JSON report path")
    p_screen.add_argument("--csv-output", default=None,
                          help="CSV ranking path")
    add_common(p_screen)
    p_screen.set_defaults(func=_cmd_screen)

    p_sim = sub.add_parser("simulate",
                           help="replicate a benchmark scenario")
    p_sim.add_argument("--scenario", default=None,
                       help="scenario id, e.g. E1 or S3c1")
    p_sim.add_argument("--scenario-file", default=None,
                       help="plain-text 'key = value' scenario definition")
    p_sim.add_argument("--method", action="append", choices=METHOD_NAMES,
                       help="screener to run (repeatable; default rc)")
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--p", type=int, default=None)
    p_sim.add_argument("--rho0", type=float, default=None)
    p_sim.add_argument("--w0", type=float, default=None)
    p_sim.add_argument("--error", default=None,
                       help="error family, e.g. cauchy, cauchy3, t3")
    p_sim.add_argument("--r2", type=float, default=None,
                       help="target variance-explained ratio (E4)")
    p_sim.add_argument("--case", type=int, default=None,
                       help="contamination case for S1-S4")
    p_sim.add_argument("--reps", type=int, default=None,
                       help="replications (default 50; 200 with --full)")
    p_sim.add_argument("--full", action="store_true",
                       help="full-scale replication count")
    p_sim.add_argument("--d-n", type=int, default=None,
                       help="screening budget override")
    p_sim.add_argument("--output", default=None, help="JSON report path")
    p_sim.add_argument("--csv-output", default=None, help="CSV table path")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_test = sub.add_parser("test",
                            help="wild-bootstrap independence test")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--response", required=True)
    p_test.add_argument("--exposure", default=None,
                        help="excluded from the covariates if named")
    p_test.add_argument("--covariate", default=None,
                        help="covariate column to test")
    p_test.add_argument("--all", action="store_true",
                        help="test every covariate")
    p_test.add_argument("--n-boot", type=int, default=500,
                        help="bootstrap replicates")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--output", default=None, help="JSON report path")
    add_common(p_test)
    p_test.set_defaults(func=_cmd_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except RankscreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
