"""Command-line surface: solve, verify and inspect trajectories.

Sample data goes to stdout (or --output); diagnostics go to stderr so
pipelines stay clean.  Exit codes: 0 success, 1 verification failed,
2 invalid input or an output value that is not finite (with a one-line
``error: <reason>`` on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import astuple, fields

import numpy as np

from galmag import frenet
from galmag.errors import GalmagError, IncompatibleIC, NonFiniteState, ZeroCurvature
# norm and integrate stay bound here: bench/test_bench.py checks that tracing restores them.
from galmag.galilean import norm  # noqa: F401
from galmag.magnetic import (
    KillingField,
    MagneticIC,
    NMagneticIC,
    helix_decomposition,
    solve_magnetic,
    solve_n_magnetic,
)
from galmag.oracle import IntegratorConfig, grid_points, integrate, verify  # noqa: F401

DEFAULT_TOLERANCE = 1e-9
DEFAULT_RK4_STEP = 1e-3
DEFAULT_SAMPLES = 201
# a table holds a dozen n-length columns at once, so memory grows with the
# samples: at this limit a helix frenet CSV peaks at 259 MB and solve at
# 122 MB (Python 3.11, NumPy 2.4, x86-64 Linux)
MAX_SAMPLES = 10**6
_BLOCK = 1024  # rows per write: bounds the Python objects and text held at once
_SIGN_BIT = np.int64(-1 << 63)  # the sign bit of a float64 seen as int64

# a frenet JSON sample, one %r per column of s,t1,t2,t3,n1,n2,n3,b1,b2,b3,kappa,tau
_FRAME = ('{"s": %r, "T": [%r, %r, %r], "N": [%r, %r, %r], "B": [%r, %r, %r], '
          '"kappa": %r, "tau": %r}')


class _CliError(Exception):
    """A refused input: its reason and detail form the stderr line."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token such as -1:1, -1,0,0 or -.5 is a value, not a flag.
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    # one-line machine-readable reason instead of argparse's usage dump
    def error(self, message):
        raise _CliError("invalid-flags", message)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@functools.cache  # compiled or loaded on the first CSV table, never at import
def _g17_native():
    """The exact %.17g converter of _g17.c, or None where it cannot be built.

    It maps a float64 array to its texts and the count of values it left to
    Python, whose texts are "".
    """
    import ctypes
    from pathlib import Path

    from galmag import _native

    size_t = ctypes.c_size_t
    signature = (size_t, [ctypes.c_char_p, size_t, ctypes.c_char_p, ctypes.POINTER(size_t)])
    lib = _native.load("g17", Path(__file__).with_name("_g17.c").read_text(),
                       {"g17_format": signature})
    if lib is None:
        return None

    def g17(values: np.ndarray) -> tuple[list[str], int]:
        n, left = len(values), size_t()
        out = ctypes.create_string_buffer(24 * n)  # a text and its separator take at most 24 bytes
        size = lib.g17_format(values.astype(np.float64, copy=False).tobytes(), n, out, left)
        return out[:size].decode("ascii").split("\n"), left.value

    return g17


def _g17_strings(values: np.ndarray) -> list[str]:
    g17 = _g17_native()
    if g17 is None:
        values = values.tolist()
        # one % call for the whole column: the fastest way to format %.17g in Python
        return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")
    texts, left = g17(values)
    if left:
        texts = [text or "%.17g" % x for text, x in zip(texts, values.tolist())]
    return texts


def _repr_strings(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def _write_rows(out, table: np.ndarray, parts: list[str], strings, sep: str) -> None:
    """Write each row of table as parts[0], column 0, parts[1], ..., parts[-1].

    Rows are joined by sep.  strings maps a float64 array to the texts of
    its values.  Columns are compared by their bits (an int64 view, so 0.0
    and -0.0 differ), and in each block a column is written by the first
    rule that fits:

    1. constant in the block (lo == hi): formatted once, into the row's text;
    2. equal to an earlier column: reuses its strings;
    3. the negation of an earlier column (its bits with the sign flipped):
       reuses its strings with the leading "-" dropped or added, which is
       how both %.17g and repr print -x, 0 and -0 included, for every
       finite x (_check_finite runs before every write);
    4. spanning fewer than n ulps (hi - lo < n in Python ints, so lo and hi
       have one sign): each distinct value is formatted once, then indexed;
    5. otherwise every value is formatted.

    All five give each value the text strings gives it.  One join then
    builds the block's text at its exact size: one % call for the whole
    block grows a buffer to a varying final size, and over repeated calls
    its freed fragments raised peak memory.
    """
    for start in range(0, len(table), _BLOCK):
        # one contiguous row per column: reductions along it are several times faster
        bits = np.ascontiguousarray(table[start:start + _BLOCK].view(np.int64).T)
        n = bits.shape[1]
        lo, hi = bits.min(1).tolist(), bits.max(1).tolist()
        cols, lits, seen = [], [parts[0]], {}
        for j, part in enumerate(parts[1:]):
            col = bits[j]
            if lo[j] == hi[j]:
                lits[-1] += strings(col[:1].view(np.float64))[0] + part
                continue
            key = col.tobytes()
            if key not in seen:
                negated = seen.get((col ^ _SIGN_BIT).tobytes())
                if negated is not None:
                    seen[key] = [t[1:] if t[0] == "-" else "-" + t for t in negated]
                elif hi[j] - lo[j] < n:
                    distinct, index = np.unique(col, return_inverse=True)
                    texts = strings(distinct.view(np.float64))
                    seen[key] = [texts[i] for i in index.tolist()]
                else:
                    seen[key] = strings(col.view(np.float64))
            cols.append(seen[key])
            lits.append(part)
        stride = 2 * len(cols) + 1  # a row: literal, column, literal, ..., column, literal
        pieces = [None] * (n * stride)
        pieces[0::stride] = [lits[0]] * n
        for i, col in enumerate(cols):
            pieces[2 * i + 1::stride] = col
            pieces[2 * i + 2::stride] = [lits[i + 1]] * n
        pieces[stride - 1::stride] = [lits[-1] + sep] * (n - 1) + [lits[-1]]
        if start:
            out.write(sep)
        out.write("".join(pieces))


def _write_csv(out, header: str, table: np.ndarray) -> None:
    # "%.17g" formats exactly like _fmt and round-trips every double.
    out.write(header + "\n")
    _write_rows(out, table, ["", *[","] * (table.shape[1] - 1), "\n"], _g17_strings, "")


def _write_json(out, doc: dict, table: np.ndarray, row: str) -> None:
    # The bytes of json.dump(doc | {"samples": rows}), row holding one %r per
    # column: json writes a finite float as float.__repr__.
    out.write(json.dumps({**doc, "samples": []})[:-2])
    _write_rows(out, table, row.split("%r"), _repr_strings, ", ")
    out.write("]}\n")


@functools.cache  # one parser per process: nothing may mutate it after this returns
def _build_parser() -> _Parser:
    parser = _Parser(prog="galmag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--mode", choices=("magnetic", "nmagnetic"), required=True)
        p.add_argument("--v", help="field coefficients v1,v2,v3 (default 0,0,0)")
        p.add_argument(
            "--ic",
            default="",
            help="initial data as key=value list, e.g. y0=1,Y0=5,z0=4,Z0=3 "
            "(nmagnetic adds T0,U0; missing keys default to 0)",
        )
        p.add_argument(
            "--range",
            required=True,
            dest="srange",
            help="parameter window start:end[:step] (verify: start:end)",
        )

    def add_output(p):
        p.add_argument("--samples", type=int, help="sample count (alternative to a range step)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="output path (default stdout)")

    p_solve = sub.add_parser("solve", help="emit closed-form trajectory samples")
    add_common(p_solve)
    add_output(p_solve)

    p_verify = sub.add_parser("verify", help="cross-check the closed form against RK4")
    add_common(p_verify)
    p_verify.add_argument(
        "--step", type=float, default=DEFAULT_RK4_STEP, help="RK4 step (default 1e-3)"
    )
    p_verify.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="pass threshold for every reported metric (default 1e-9)",
    )

    p_frenet = sub.add_parser("frenet", help="emit per-sample Frenet frame data")
    add_common(p_frenet)
    add_output(p_frenet)
    return parser


def _parse_field(args) -> KillingField:
    v = [0.0, 0.0, 0.0]
    if args.v is not None:
        parts = args.v.split(",")
        if len(parts) != 3:
            raise _CliError("invalid-field", f"--v expects v1,v2,v3, got {args.v!r}")
        try:
            v = [float(p) for p in parts]
        except ValueError:
            raise _CliError("invalid-field", f"non-numeric component in {args.v!r}")
    if not all(map(math.isfinite, v)):
        raise _CliError("invalid-field", f"non-finite component in v = {v}")
    return KillingField(*v)


def _parse_ic(args):
    ic_class = MagneticIC if args.mode == "magnetic" else NMagneticIC
    keys = [f.name for f in fields(ic_class)]
    values = {}
    text = args.ic.strip()
    if text:
        for item in text.split(","):
            if "=" not in item:
                raise _CliError("invalid-ic", f"expected key=value, got {item!r}")
            key, _, raw = item.partition("=")
            key = key.strip()
            if key not in keys:
                raise _CliError("invalid-ic", f"unknown key {key!r} for mode {args.mode}")
            if key in values:
                raise _CliError("invalid-ic", f"duplicate key {key!r}")
            try:
                values[key] = float(raw)
            except ValueError:
                raise _CliError("invalid-ic", f"non-numeric value in {item!r}")
            if not math.isfinite(values[key]):
                raise _CliError("invalid-ic", f"non-finite value in {item!r}")
    return ic_class(**{**dict.fromkeys(keys, 0.0), **values})


def _parse_range(args) -> tuple[float, float, float | None]:
    parts = args.srange.split(":")
    if len(parts) not in (2, 3):
        raise _CliError("invalid-range", f"expected start:end[:step], got {args.srange!r}")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise _CliError("invalid-range", f"non-numeric component in {args.srange!r}")
    if not all(map(math.isfinite, numbers)):
        raise _CliError("invalid-range", f"non-finite component in {args.srange!r}")
    s_start, s_end = numbers[0], numbers[1]
    step = numbers[2] if len(parts) == 3 else None
    if not s_end > s_start:
        raise _CliError("invalid-range", "end must exceed start")
    if s_end - s_start == math.inf:  # else np.linspace yields a nan and the step guard an inf
        raise _CliError("invalid-range", f"end - start overflows in {args.srange!r}")
    if step is not None and not step > 0.0:
        raise _CliError("invalid-range", "step must be positive")
    return s_start, s_end, step


def _sample_grid(args) -> np.ndarray:
    s_start, s_end, step = _parse_range(args)
    samples = getattr(args, "samples", None)
    if step is not None and samples is not None:
        raise _CliError("invalid-flags", "give either a range step or --samples, not both")
    if samples is None:
        samples = DEFAULT_SAMPLES if step is None else (s_end - s_start) / step
    if samples > MAX_SAMPLES:
        count = samples if isinstance(samples, int) else f"{samples:.3g}"  # --samples is exact
        raise _CliError("invalid-flags", f"{count} samples exceed the {MAX_SAMPLES:.0e} limit")
    if step is not None:
        return grid_points(IntegratorConfig(s_start, s_end, step))
    if samples < 2:
        raise _CliError("invalid-flags", "--samples must be at least 2")
    return np.linspace(s_start, s_end, samples)


def _solve_curve(args):
    field = _parse_field(args)
    ic = _parse_ic(args)
    if args.mode == "magnetic":
        return solve_magnetic(field, ic)
    return solve_n_magnetic(field, ic)


def _summary(curve, s0: float):
    """Case name, kappa, tau at s0 (None where kappa = 0) and HelixData or None, all finite."""
    kappa = curve.kappa0
    tau = None if kappa == 0.0 else frenet.torsion(curve, s0)
    helix = helix_decomposition(curve) if curve.case.is_helix else None
    head = (0.0 if tau is None else tau, *(astuple(helix) if helix else ()))
    _check_finite("s,kappa,tau,r,a,b,c,d", np.array([[s0, kappa, *head]]))
    return curve.case.value, kappa, tau, helix


def _check_finite(header: str, table: np.ndarray) -> None:
    """Refuse a table holding nan or inf, naming its first such value and s (column 0)."""
    bad = ~np.isfinite(table)
    if bad.any():
        row, col = divmod(int(bad.argmax()), table.shape[1])
        value = f"{header.split(',')[col]} = {_fmt(table[row, col])}"
        raise _CliError("nonfinite-output", f"{value} at s = {_fmt(table[row, 0])}")


@contextmanager
def _open_output(args):
    """The --output file, else stdout; either is flushed on exit, so a failed write raises."""
    if getattr(args, "output", None):
        with open(args.output, "w") as out:
            yield out
    else:
        yield sys.stdout
        sys.stdout.flush()


def _cmd_solve(args) -> int:
    curve = _solve_curve(args)
    grid = _sample_grid(args)
    table = np.column_stack((grid, curve.eval(grid)))
    _check_finite("s,x,y,z", table)
    case, kappa, tau, helix = _summary(curve, float(grid[0]))
    tau_text = "nan" if tau is None else _fmt(tau)
    lines = [f"case: {case}", f"kappa: {_fmt(kappa)}", f"tau: {tau_text}"]
    if helix is not None:
        lines.append(f"helix radius: {_fmt(helix.r)}")
        lines.append(
            f"helix axis: y = {_fmt(helix.a)}*s + {_fmt(helix.b)}, "
            f"z = {_fmt(helix.c)}*s + {_fmt(helix.d)}"
        )
    with _open_output(args) as out:
        if args.format == "csv":
            _write_csv(out, "s,x,y,z", table)
        else:
            helix_doc = None if helix is None else {
                "r": helix.r, "line": {"a": helix.a, "b": helix.b, "c": helix.c, "d": helix.d}
            }
            doc = {"case": case, "kappa": kappa, "tau": tau, "helix": helix_doc}
            _write_json(out, doc, table, "[%r, %r, %r, %r]")
    # after the table: a refused or failed write leaves its error line alone on stderr
    print("\n".join(lines), file=sys.stderr)
    return 0


def _cmd_frenet(args) -> int:
    curve = _solve_curve(args)
    grid = _sample_grid(args)
    f = frenet.frenet_frame(curve, grid)
    table = np.column_stack((grid, f.T, f.N, f.B, f.kappa, f.tau))
    header = "s,t1,t2,t3,n1,n2,n3,b1,b2,b3,kappa,tau"
    _check_finite(header, table)
    with _open_output(args) as out:
        if args.format == "csv":
            _write_csv(out, header, table)
        else:
            _write_json(out, {"case": curve.case.value}, table, _FRAME)
    return 0


def _cmd_verify(args) -> int:
    tol = args.tolerance
    if not tol >= 0.0:  # nan too: no metric could pass it
        raise _CliError("invalid-tolerance", "tolerance must be non-negative")
    curve = _solve_curve(args)
    s_start, s_end, step = _parse_range(args)
    if step is not None:
        raise _CliError("invalid-range", "verify takes its RK4 step from --step")
    case, kappa, tau, helix = _summary(curve, s_start)
    metrics = verify(curve, s_start, s_end, args.step)
    tau_text = "nan" if tau is None else _fmt(tau)
    lines = [f"case = {case}", f"kappa = {_fmt(kappa)}", f"tau = {tau_text}"]
    if helix is not None:
        lines.append(f"helix_r = {_fmt(helix.r)}")
    lines += [f"{key} = {_fmt(value)}" for key, value in metrics.items()]
    ok = all(value < tol for value in metrics.values())
    lines += [f"tolerance = {_fmt(tol)}", f"status = {'pass' if ok else 'fail'}"]
    with _open_output(args) as out:
        print("\n".join(lines), file=out)
    return 0 if ok else 1


_COMMANDS = {"solve": _cmd_solve, "verify": _cmd_verify, "frenet": _cmd_frenet}
_REASONS = {IncompatibleIC: "incompatible-ic", ZeroCurvature: "zero-curvature",
            NonFiniteState: "nonfinite-state"}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # numpy's floating-point warnings name no input; the commands check their output
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except _CliError as exc:
        reason, detail = exc.args
    except OSError as exc:  # the output is the only file a command opens or writes
        reason, detail = "unwritable-output", exc
    except (GalmagError, ValueError) as exc:
        reason, detail = _REASONS.get(type(exc), "invalid-input"), exc
    print(f"error: {reason} ({detail})", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
