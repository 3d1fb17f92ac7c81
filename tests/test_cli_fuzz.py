"""Argv fuzzing of the CLI against its exit-code contract.

Every command ends in one of three ways: exit 0 with finite output, exit 1
from ``verify`` (verification failed), or exit 2 with exactly one
``error:`` line on stderr and nothing on stdout.  No exception escapes
``main``, and numpy's floating-point warnings never reach stderr.

The values mix ordinary numbers with the magnitudes where the arithmetic
breaks: 1e308 overflows when scaled, 1.5e308 already in a norm, 1e-200
and 3e-162 underflow when squared, 1e-320 is subnormal and 1e-13 makes a
near-isotropic field whose helix radius is finite but large.
Windows stay small (or far beyond the step guard) and ``--samples`` stays
at most 1000, so every example runs in milliseconds.
"""

import contextlib
import io
import re

from hypothesis import given, settings, strategies as st

from galmag.cli import main

NUMBERS = ["0", "1", "-1", "0.5", "-2", "1e308", "-1e308", "1.5e308", "1e-200",
           "-3e-162", "3e-162", "1e-320", "1e-13"]
BAD = ["nan", "inf", "-inf", "x", ""]
# an input is malformed about one time in ten
values = st.sampled_from(NUMBERS * 4 + BAD)
starts = st.sampled_from(["0", "0", "-1", "-3", "1", "1e-200", "-1e-320", "-1e308"] + BAD[:4])
ends = st.sampled_from(["1", "1", "2.5", "0.001", "1e-200", "1e308", "-0.5"] + BAD[:4])
rk4_steps = st.sampled_from(["1e-3", "1e-3", "0.01", "0.7", "0", "-1e-3", "1e-200", "1e-320"]
                            + BAD[:4])
samples = st.sampled_from(["2", "3", "17", "1000", "1", "0", "-4", "x"])

DIAGNOSTIC = re.compile(r"(error|warning|case|kappa|tau|helix radius|helix axis): ")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["solve", "verify", "frenet"]))
    mode = draw(st.sampled_from(["magnetic", "nmagnetic"]))
    keys = ["y0", "Y0", "z0", "Z0"] + (["T0", "U0"] if mode == "nmagnetic" else [])
    ic = {k: draw(values) for k in draw(st.lists(st.sampled_from(keys), unique=True))}
    v = [draw(values) for _ in range(draw(st.sampled_from([3, 3, 3, 3, 2])))]
    window = [draw(starts), draw(ends)]
    if draw(st.integers(0, 4)) == 0:
        window.append(draw(rk4_steps))
    argv = [
        command,
        f"--mode={mode}",
        f"--v={','.join(v)}",
        f"--ic={','.join(f'{k}={x}' for k, x in ic.items())}",
        f"--range={':'.join(window)}",
    ]
    if command == "verify":
        if draw(st.booleans()):
            argv.append(f"--step={draw(rk4_steps)}")
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"--tolerance={draw(st.sampled_from(['0', '1e-9', '1', '-1', 'nan']))}")
    else:
        if draw(st.booleans()):
            argv.append(f"--samples={draw(samples)}")
        argv.append(f"--format={draw(st.sampled_from(['csv', 'json']))}")
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_every_input_ends_in_finite_output_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    lines = err.splitlines()
    assert code in (0, 1, 2), code
    assert all(DIAGNOSTIC.match(line) for line in lines), err
    assert not any("encountered in" in line for line in lines), err  # numpy warnings stay silent
    if code == 1:
        assert argv[0] == "verify"
        assert out.endswith("status = fail\n")
    if code == 2:
        assert out == ""
        assert [line for line in lines if line.startswith("error:")] == [lines[-1]], err
    else:
        assert not any(line.startswith("error:") for line in lines), err
    if code == 0 and argv[0] != "verify":
        assert not re.search("nan|inf", out, re.IGNORECASE), out[:500]
    if code == 0:
        # the stderr summary is output too; only a zero curvature leaves tau undefined
        for previous, line in zip([""] + lines, lines):
            assert "inf" not in line, err
            assert "nan" not in line or (line, previous) == ("tau: nan", "kappa: 0"), err
