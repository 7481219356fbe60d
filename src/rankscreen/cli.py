"""Command-line interface: CSV ingestion and the screen / simulate / test
workflows.

Each forked job maps the units it computes in with
`~rankscreen.workers._ordered_map`: `load_csv` a large file's byte ranges,
`save_csv` its blocks of rows, `simulate` its replications, `test --all`
its columns and `screen` the chunks of covariates it counts.  The units are
cut into up to one contiguous run per CPU in the affinity mask: this
process maps the first and a forked child each other one, which pickles its
results back, and no child forks again.  Results are bit-identical whatever
the number of processes.  The package starts no thread, and no process but
these workers.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import warnings
from contextlib import nullcontext

import numpy as np

from . import workers
from .bench import METHOD_NAMES, METHODS, get_method, run_replications
from .dataset import Dataset
from .errors import InvalidInput, RankscreenError, check_seed
from .rc_screen import (
    _rademacher_matrix,
    check_bootstrap_settings,
    wild_bootstrap_test,
)
from .report import SCHEMA_VERSION, ScreeningReport, TopD, UtilityThreshold
from .simgen import make_scenario, scenario_from_config
from .spline import BasisConfig

__all__ = ["main", "load_csv", "save_csv"]


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _require_utf8(path: str, text: str, where: str):
    """Reject bytes that are not UTF-8, which ``surrogateescape`` (the
    file's decoding) keeps in ``text`` as lone surrogates."""
    raw = text.encode("utf-8", "surrogateescape")
    if raw != text.encode("utf-8", "replace"):
        raise InvalidInput(f"{path}: {where}: bytes {raw!r} are not UTF-8")


def _parse_cell(path: str, cell: str, row: int, name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        _require_utf8(path, cell, f"row {row}, column '{name}'")
        raise InvalidInput(
            f"{path}: row {row}, column '{name}': non-numeric value {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise InvalidInput(
            f"{path}: row {row}, column '{name}': non-finite value {cell!r}"
        )
    return value


def _parse_block(path: str, header: list, lines: list,
                 first_row: int) -> np.ndarray:
    """Parse lines of whole records, the first at file row ``first_row``,
    cell by cell into a float array, naming the first bad row or cell."""
    rows = []
    try:
        rows.extend(csv.reader(lines))
    except csv.Error as exc:
        raise InvalidInput(
            f"{path}: row {first_row + len(rows)}: {exc}") from None
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


def _parse_lines(path: str, header: list, lines: list,
                 first_row: int) -> np.ndarray:
    """What `_parse_block` returns, read by numpy's C parser where it can:
    a block that it rejects, reads as non-finite or reads as anything but
    one row per line (it skips a blank line; a quoted record may span
    lines) goes through `_parse_block` itself."""
    try:
        with warnings.catch_warnings():
            # an all-blank block is "no data" here, an error in the fallback
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                              dtype=float, quotechar='"')
    except ValueError:
        data = np.empty(0)
    if data.shape == (len(lines), len(header)) and np.isfinite(data).all():
        return data
    return _parse_block(path, header, lines, first_row)


def _data_blocks(lines, block_rows: int):
    """``lines`` in blocks of ``block_rows`` lines, each extended one line
    at a time until it holds an even number of ``"`` characters (a record
    spanning lines ends in the block it starts in) or the added lines, all
    in one open quoted cell, pass the size at which ``csv.reader`` rejects
    that cell."""
    while block := list(itertools.islice(lines, block_rows)):
        # `in` skips a line without quotes faster than `count` would
        quotes = sum(line.count('"') for line in block if '"' in line)
        spanned = 0
        while (quotes % 2 and spanned <= csv.field_size_limit()
               and (line := next(lines, None)) is not None):
            block.append(line)
            quotes += line.count('"')
            spanned += len(line)
        yield block


# Cells parsed per block: bounds the text alive at once.
_CELLS = 2 ** 17

# Bytes read from a file at a time.
_CHUNK = 2 ** 16

# The least CSV text, in bytes, worth a process of its own.  On the 2-core
# Xeon VM (a 30 MB parent) a fork, pipe and reap cost about 1.5 ms: two
# processes first read a file faster at about 0.5 MB of text, 0.26 MB each
# (slower at 0.25 MB, level at 0.52 MB, 9% faster at 0.80 MB), and first
# wrote one faster at about 0.2 MB.  Twice the read's break-even keeps a
# margin; `test --all`'s 161 KB CSV stays serial.
_RANGE_BYTES = 2 ** 19


class _Range(io.RawIOBase):
    """The next ``size`` bytes of the binary file ``fh``, all the rest if
    ``size`` is negative, as a raw stream that leaves ``fh`` open."""

    def __init__(self, fh, size: int):
        self.fh, self.left = fh, size

    def readable(self):
        return True

    def readinto(self, buffer):
        if self.left >= 0:
            buffer = memoryview(buffer)[:self.left]
        n = self.fh.readinto(buffer)
        self.left -= n
        return n


def _lines(fh, size: int = -1):
    """The lines of `_Range(fh, size)` as the file's text mode reads them:
    UTF-8 that keeps each byte that is not as a lone surrogate
    (``surrogateescape``, which encodes back to the same bytes), split
    after ``\\n``, ``\\r\\n`` or a lone ``\\r``."""
    return io.TextIOWrapper(io.BufferedReader(_Range(fh, size), _CHUNK),
                            encoding="utf-8", errors="surrogateescape",
                            newline="")


def _read_header(path: str, lines) -> tuple[list, int]:
    """The header record from the first of ``lines``, a leading byte-order
    mark skipped (spreadsheets write one), and the bytes it takes."""
    taken = []

    def source():
        for line in lines:
            taken.append(line)
            if len(taken) == 1:
                line = line.removeprefix("\ufeff")
            if line:  # empty only in a file of just the mark
                yield line

    try:
        header = next(csv.reader(source()))
    except StopIteration:
        raise InvalidInput(f"{path}: file is empty") from None
    except csv.Error as exc:
        raise InvalidInput(f"{path}: row 1: {exc}") from None
    return header, len("".join(taken).encode("utf-8", "surrogateescape"))


def _cuts(fh, start: int, end: int, k: int) -> list:
    """Offsets ``start < c1 < ... < end`` in the binary file ``fh`` that cut
    its bytes ``[start, end)`` into at most ``k`` ranges of about equal
    size.  Each cut follows the first ``\\n`` at or past its target after
    which the count of ``"`` since ``start`` is even, as a `_data_blocks`
    block ends, so no record spanning lines is cut; a file whose lines end
    in a bare ``\\r`` has no ``\\n`` and stays one range."""
    cuts, pos, quotes = [start], start, 0
    fh.seek(start)
    for i in range(1, k):
        target = start + (end - start) * i // k
        if pos >= target:  # the last cut passed it
            continue
        while pos < target and (chunk := fh.read(min(_CHUNK, target - pos))):
            pos += len(chunk)
            if b'"' in chunk:  # `in` passes a chunk without quotes faster
                quotes += chunk.count(b'"')
        while line := fh.readline():
            pos += len(line)
            quotes += line.count(b'"')
            if quotes % 2 == 0:
                break
        if cuts[-1] < pos < end:
            cuts.append(pos)
    return cuts + [end]


def load_csv(path: str, response_name: str,
             exposure_name: str | None = None) -> Dataset:
    """Read a headed CSV into a Dataset.

    The file is read as UTF-8 (a leading byte-order mark, as spreadsheets
    write, is skipped).  Header names must be distinct.  The response (and
    optional exposure, another column) are extracted by name; all remaining
    columns become covariates in header order.  Cells must parse as finite
    numbers (``float``'s syntax); the first violation in file order, bytes
    that are not UTF-8 included, is reported with its row and column (rows
    are counted as in the file, header = row 1, a record as one row).

    Blocks of about ``_CELLS`` cells (at least two lines, ending where the
    count of ``"`` is even) are parsed in turn, so the text of one block,
    not of the whole file, is alive at once: by ``np.loadtxt``, quoted or
    not, or, where it fails, cell by cell through ``csv.reader`` and
    ``float`` with the same values.  ``x`` is column-major; no returned
    array shares memory with the parse.

    One process streams the file, a pipe included.  A regular file with
    ``2 * _RANGE_BYTES`` bytes of data or more is cut at line ends where
    the count of ``"`` since the header is even, into one range per CPU in
    the affinity mask, each of at least ``_RANGE_BYTES``
    (`~rankscreen.workers._count`, `_cuts`), and
    `~rankscreen.workers._ordered_map` parses each range whole, from its
    own file handle, in this process or a forked child, and returns its
    InvalidInput, if any, instead of raising it.  If any range fails, this
    process parses the whole file once more, so every value, message and
    row number is the one a single process gives.  No child outlives the
    call.
    """
    with open(path, "rb") as fh:
        lines = _lines(fh)
        header, start = _read_header(path, lines)
        if response_name not in header:
            raise InvalidInput(f"{path}: no column named '{response_name}'")
        if exposure_name is not None and exposure_name not in header:
            raise InvalidInput(f"{path}: no column named '{exposure_name}'")
        if exposure_name == response_name:
            raise InvalidInput(
                f"{path}: the exposure '{exposure_name}' is the response")
        first = {}
        for j, name in enumerate(header):
            _require_utf8(path, name, f"row 1, column {j + 1}")
            if name in first:
                raise InvalidInput(
                    f"{path}: columns {first[name] + 1} and {j + 1} are "
                    f"both named '{name}'"
                )
            first[name] = j
        head = list(itertools.islice(lines, 2))
        if len(head) < 2:
            raise InvalidInput(f"{path}: need at least 2 data rows")
        y_idx = first[response_name]
        z_idx = first[exposure_name] if exposure_name is not None else None
        x_idx = [j for j in range(len(header)) if j != y_idx and j != z_idx]
        if not x_idx:
            raise InvalidInput(f"{path}: no covariate columns remain")

        def parse(source):
            """The (y, z, x) arrays of each block of the whole records in
            the lines ``source``, its rows named from file row 2 on."""
            blocks, first_row = [], 2
            for block in _data_blocks(source, max(2, _CELLS // len(header))):
                data = _parse_lines(path, header, block, first_row)
                first_row += len(data)
                # copies, not views, so that no full-width block stays alive
                blocks.append((
                    data[:, y_idx].copy(),
                    data[:, z_idx].copy() if z_idx is not None else None,
                    data[:, x_idx]))
            return blocks

        def parse_range(i):
            # its own file: a forked child would share the offset of fh; an
            # InvalidInput is returned, so a child's is not parsed again
            with open(path, "rb") as own:
                own.seek(cuts[i])
                try:
                    return parse(_lines(own, cuts[i + 1] - cuts[i]))
                except InvalidInput as exc:
                    return exc

        end = os.fstat(fh.fileno()).st_size  # 0 for a pipe: one process
        k = workers._count(end - start, _RANGE_BYTES)
        if k == 1:
            blocks = parse(itertools.chain(head, lines))
        else:
            cuts = _cuts(fh, start, end, k)
            ranges = workers._ordered_map(parse_range, len(cuts) - 1, k)
            if any(isinstance(r, InvalidInput) for r in ranges):
                fh.seek(start)  # rows numbered as one process numbers them
                blocks = parse(_lines(fh))
            else:
                blocks = list(itertools.chain.from_iterable(ranges))
    y_parts, z_parts, x_parts = zip(*blocks)
    n = sum(map(len, y_parts))
    if n < 2:  # a record may span lines
        raise InvalidInput(f"{path}: need at least 2 data rows")
    # column-major, as a column selection of the whole table was: each
    # covariate is contiguous for the per-column sorts and sums
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

    The rows go in blocks of about ``_RANGE_BYTES // 2`` bytes of text,
    sized from the first row's, so that the floats of one block, not of
    the whole table, are alive at once.
    `~rankscreen.workers._ordered_map` encodes each block whole, on up to
    one process per CPU in the affinity mask, each with at least
    ``_RANGE_BYTES`` of text (`~rankscreen.workers._count`), and the blocks
    are written in row order after the header, so ``path`` need not seek
    (a pipe will do).  The bytes do not depend on the number of processes,
    and no child outlives the call.
    """
    header = [dataset.y_name]
    columns = [dataset.y]
    if dataset.z is not None:
        header.append(dataset.z_name)
        columns.append(dataset.z)
    header.extend(dataset.x_names)
    columns.append(dataset.x)
    n = dataset.n

    def text(lo, hi):
        table = np.column_stack([c[lo:hi] for c in columns]).tolist()
        return "".join([",".join(map(repr, row)) + "\r\n" for row in table])

    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        width = len(text(0, 1))  # bytes: repr of a float is ASCII
        h = max(1, _RANGE_BYTES // 2 // max(1, width))
        fh.flush()  # the header goes first
        fh.buffer.writelines(workers._ordered_map(
            lambda i: text(i * h, i * h + h).encode(), -(-n // h),
            workers._count(n * width, _RANGE_BYTES)))


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
    import secrets  # SeedSequence()'s 128 bits, without numpy.random

    fresh = secrets.randbits(128) % (2 ** 63)
    print(f"seed = {fresh} (auto-generated; pass --seed to replay)")
    return fresh


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# The least bootstrap work, in n * n_boot cells summed over the columns,
# worth a process of its own in `test --all`.  On the 2-core Xeon VM two
# processes, with one BLAS thread each, first tested E1 columns faster at
# about 3e5 cells, 1.5e5 each (6 columns of n = 200: 7% slower at
# n_boot = 200, 20% faster at 500); a fresh process also loads ctypes
# (1.7 ms) to find the BLAS setter.  Twice that break-even keeps a margin.
_BOOT_CELLS = 2 ** 19


def _cmd_screen(args, parser) -> int:
    if METHODS[args.method].needs_exposure and args.exposure is None:
        parser.error(f"method '{args.method}' requires --exposure")
    if args.top_d is not None and args.threshold is not None:
        parser.error("pass at most one of --top-d / --threshold")
    if args.top_k < 0:
        parser.error("--top-k must be >= 0")
    try:
        basis = BasisConfig(degree=args.degree, n_basis=args.n_basis)
        selection = None  # the default budget floor(n / ln n)
        if args.top_d is not None:
            selection = TopD(args.top_d)
        elif args.threshold is not None:
            selection = UtilityThreshold(args.threshold)
    except InvalidInput as exc:
        parser.error(str(exc))
    dataset = load_csv(args.input, args.response, args.exposure)
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
    if not (args.scenario or args.scenario_file):
        parser.error("pass --scenario or --scenario-file")
    try:  # each InvalidInput here is raised before the first replication
        if args.scenario_file:
            with open(args.scenario_file, encoding="utf-8") as fh:
                scenario = scenario_from_config(fh.read())
        else:
            scenario = make_scenario(args.scenario, n=args.n, p=args.p,
                                     rho0=args.rho0, w0=args.w0,
                                     error=args.error, r2=args.r2,
                                     case=args.case)
        if (any(METHODS[m].needs_exposure for m in methods)
                and not scenario.needs_exposure):
            parser.error(f"scenario {scenario.id} has no exposure; rpc-* "
                         "methods do not apply")
        basis = BasisConfig(degree=args.degree, n_basis=args.n_basis)
        seed = _resolve_seed(args.seed)
        report = run_replications(scenario, methods, args.reps, seed,
                                  d_n=args.d_n, basis_config=basis)
    except InvalidInput as exc:
        parser.error(str(exc))
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
    try:
        check_bootstrap_settings(args.n_boot, args.alpha)
    except InvalidInput as exc:
        parser.error(str(exc))
    dataset = load_csv(args.input, args.response, args.exposure)
    seed = _resolve_seed(args.seed)
    if args.all:
        columns = list(range(dataset.p))
    else:
        if args.covariate not in dataset.x_names:
            raise InvalidInput(f"no covariate named '{args.covariate}'")
        columns = [dataset.x_names.index(args.covariate)]

    def test_column(i):
        j = columns[i]
        try:
            return wild_bootstrap_test(dataset.y, dataset.x[:, j],
                                       n_boot=args.n_boot, alpha=args.alpha,
                                       seed=seed)
        except InvalidInput as exc:  # raised once the lines before it print
            return InvalidInput(f"covariate '{dataset.x_names[j]}': {exc}")
        except Exception as exc:  # noqa: BLE001 - so is any other error
            return exc

    # forked workers each pin BLAS to one thread, or their thread pools
    # fight over the cores; without a thread setter the columns stay here
    cells = len(columns) * dataset.n * args.n_boot
    k = min(len(columns), workers._count(cells, _BOOT_CELLS))
    pin = workers._one_blas_thread() if k > 1 else nullcontext(False)
    with pin as pinned:
        if pinned:  # drawn once here, and inherited by every worker
            _rademacher_matrix(seed, dataset.n, args.n_boot)
        outcomes = workers._ordered_map(test_column, len(columns),
                                        k if pinned else 1)
    for j, res in zip(columns, outcomes):
        if isinstance(res, Exception):
            raise res
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
                for j, res in zip(columns, outcomes)
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

    def add_common(p, spline=True):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; omit for entropy (printed for replay)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect "
                            "(the processes that read the CSV, run the "
                            "replications, test the columns or count the "
                            "covariates follow the CPU affinity mask; BLAS "
                            "threads follow OPENBLAS_NUM_THREADS, one in "
                            "each forked bootstrap worker)")
        if spline:  # `test` fits no splines
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
    p_screen.set_defaults(func=_cmd_screen, command_parser=p_screen)

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
    p_sim.add_argument("--reps", type=int, default=50,
                       help="replications (default 50)")
    p_sim.add_argument("--d-n", type=int, default=None,
                       help="screening budget override")
    p_sim.add_argument("--output", default=None, help="JSON report path")
    p_sim.add_argument("--csv-output", default=None, help="CSV table path")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate, command_parser=p_sim)

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
    add_common(p_test, spline=False)
    p_test.set_defaults(func=_cmd_test, command_parser=p_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # usage errors print the usage line of the command that was given
        command_parser = args.command_parser
        if args.seed is not None:  # every command takes --seed
            try:
                check_seed(args.seed)
            except InvalidInput as exc:
                command_parser.error(str(exc))
        return args.func(args, command_parser)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except (RankscreenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
