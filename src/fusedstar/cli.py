"""Command-line reports for fused-star consensus networks.

Subcommands: solve (single-instance JSON report, read on the scheme's
skeleton), compare (SLEM of all weighting schemes, from the skeletons of
three weightings: max-degree's and best-constant's rows come from the
unit weights' report), verify (optimality certificate residuals), sweep
(CSV grids over network shapes, each solved as one batch), simulate
(consensus trajectory).
JSON goes to stdout for single reports, RFC-4180 CSV for grids and
trajectories; diagnostics go to stderr.  Exit codes: 0 success,
1 verification or computation failure, 2 invalid input, 3 out of memory
(an array that the request needs does not fit in the memory the process
may use; nothing on stdout and one ``error:`` line), 141 stdout
closed before the whole report was written (a reader such as ``head``
that exits early; 128 + SIGPIPE, as a shell reports a process that
SIGPIPE ends), with nothing on stderr, buffered or not (``python -u``,
``PYTHONUNBUFFERED``).  ``main`` returns the code for every argument
list: argparse's usage errors give 2 and ``--help`` 0.  Each request is
parsed by its command words' own parser (``solve``, ``sweep custom``), in
one argparse walk; the top-level parser answers help, unknown commands
and arguments that the command's parser leaves over.
``solve`` writes its weights from the skeleton's runs of equal weights,
at most four, into one piece of text whose length it knows in advance,
and ``solve`` and ``verify`` load no numpy: the batch of ``sweep``, the
iteration of ``simulate`` and the dense reads of small blocks import it
on first use.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from typing import Iterator

from .certificate import build_dual_certificate, verify_certificate
from .optimizer import SelfCheckError, optimal_weights, optimal_weights_batch
from .spectral import BlockError, SkeletonBlocks
from .topology import InvalidParameterError, TfsParams, check_array_size
from .weighting import (
    best_constant_skeleton,
    constant_weight_slems,
    max_degree_skeleton,
    metropolis_skeleton,
    skeleton_weights,
)

SCHEMES = ("optimal", "max-degree", "metropolis", "best-constant")

EXIT_NO_MEMORY = 3
EXIT_CLOSED_PIPE = 141


class _Stdout:
    """Where the reports go: ``sys.stdout`` as it is at each write, which
    takes every byte or raises.

    Under ``python -u`` or ``PYTHONUNBUFFERED``, ``sys.stdout.buffer`` is
    a raw ``FileIO``, whose ``write`` may take only part of its bytes (a
    reader that exits mid-write takes what the pipe held), and
    ``TextIOWrapper`` drops the rest without an error.  There the encoded
    text goes to the raw stream until it takes every byte or raises
    ``BrokenPipeError``; a POSIX stdout's text layer writes its text as
    encoded, so the bytes are the same.  Any other stdout, buffered or a
    text stream with no raw buffer under it (``StringIO``, pytest's
    capture), takes the text as it is.

    ASCII bytes (the weights of ``solve``) go, after the text before
    them, to the stream under the text layer as they are, the bytes of
    their text in any ASCII-compatible encoding; a stream with none under
    it (``StringIO``) takes them decoded.
    """

    def write(self, text: str | bytearray) -> None:
        stream = sys.stdout
        raw = getattr(stream, "buffer", None)
        if isinstance(text, str) and not isinstance(raw, io.RawIOBase):
            stream.write(text)
            return
        if raw is None:
            stream.write(text.decode("ascii"))
            return
        stream.flush()
        if isinstance(text, str):
            text = text.encode(stream.encoding, stream.errors)
        data = memoryview(text)
        while data:
            data = data[raw.write(data) :]


_STDOUT = _Stdout()

_CONVENTIONS = {"dmax": "inv_dmax", "dmax+1": "inv_dmax_plus_1"}


def _sig10(x: float) -> float:
    # 10 significant digits, round half even
    return float(f"{float(x):.10g}")


def _params_from(args: argparse.Namespace) -> TfsParams:
    return TfsParams(m1=args.m1, n1=args.n1, m2=args.m2, n2=args.n2)


def _scheme_skeleton(
    params: TfsParams, scheme: str, args: argparse.Namespace
) -> SkeletonBlocks:
    """The skeleton of a scheme other than the optimum."""
    if scheme == "max-degree":
        convention = _CONVENTIONS[args.max_degree_convention]
        return max_degree_skeleton(params, convention)
    if scheme == "metropolis":
        return metropolis_skeleton(params)
    if scheme == "best-constant":
        return best_constant_skeleton(params)
    raise InvalidParameterError(f"unknown scheme {scheme!r}")


def _solve_payload(
    params: TfsParams, args: argparse.Namespace
) -> tuple[dict, SkeletonBlocks]:
    """The solve report without its weights, and the skeleton whose
    weights they are.

    The report reads the scheme's skeleton, and the optimum's certificate
    reads it too, in O(1) of the branch lengths: the optimum's at its
    claims ``-s`` and ``s``, another scheme's without claims.  The
    report's ``"weights"`` is an empty placeholder for ``cmd_solve`` to
    fill from ``_weights_json``.
    """
    if args.scheme == "optimal":
        solution = optimal_weights(params)
        skeleton, s = solution.skeleton, solution.s
    else:
        solution, s = None, None
        skeleton = _scheme_skeleton(params, args.scheme, args)
    report = skeleton.report(s)
    payload = {
        "params": {
            "m1": params.m1,
            "n1": params.n1,
            "m2": params.m2,
            "n2": params.n2,
            "n_nodes": params.n_nodes,
        },
        "scheme": args.scheme,
        "slem": _sig10(report.slem),
        "lambda2": _sig10(report.lambda2),
        "lambda_min": _sig10(report.lambda_min),
        "theta_star": _sig10(solution.theta_star) if solution else None,
        "weights": {},
    }
    if solution is not None:
        certificate = build_dual_certificate(solution)
        residuals = verify_certificate(certificate, solution.skeleton)
        payload["certificate"] = {
            key: _sig10(value) for key, value in residuals.as_dict().items()
        }
        payload["certificate"]["passes"] = residuals.passes()
    return payload, skeleton


# the labels below 100, and the last two digits of the larger ones
_SMALL_LABELS = tuple(str(d) for d in range(100))
_LAST_DIGITS = tuple("%02d" % d for d in range(100))


def _label_lines(first: int, stop: int, value: str) -> Iterator[str]:
    """``    "<label>": <value>,\n`` for each label in ``range(first, stop)``,
    all on one side of 0, in blocks of the labels that differ only in
    their last two digits, one at a time.  A block is one ``str.join`` of
    those digits behind its shared prefix, so Python runs once per
    hundred labels."""
    sign, step = ("-", -1) if first < 0 else ("", 1)
    end = '": ' + value + ",\n"
    separator = end + '    "'
    # the labels' absolute values, in label order
    magnitudes = range(first * step, stop * step, step)
    while magnitudes:
        hundreds, digits = divmod(magnitudes[0], 100)
        count = 100 - digits if step == 1 else digits + 1
        block, magnitudes = magnitudes[:count], magnitudes[count:]
        low, high = sorted((block[0] % 100, block[-1] % 100))
        prefix = sign + str(hundreds) if hundreds else sign
        table = _LAST_DIGITS if hundreds else _SMALL_LABELS
        ends = table[low : high + 1][::step]
        yield '    "' + prefix + (separator + prefix).join(ends) + end


def _digits_to(n: int) -> int:
    """The number of digits of the integers 1 to ``n`` written out: each
    has one for every power of ten at or below it."""
    digits, power = 0, 1
    while power <= n:
        digits += n - power + 1
        power *= 10
    return digits


_BINARY_UNITS = ("bytes", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB")


def _binary_size(size: int) -> str:
    """``size`` bytes as numpy's allocation errors write a size: in the
    largest binary unit up to EiB that leaves less than 1024 of it after
    rounding, to three significant digits below 1000 of it."""
    unit = max(size.bit_length() - 1, 1) // 10
    amount = size / (1 << 10 * unit)
    if round(amount) == 1024:
        unit, amount = unit + 1, amount / 1024
    if unit >= len(_BINARY_UNITS):
        amount *= 1 << 10 * (unit - len(_BINARY_UNITS) + 1)
        unit = len(_BINARY_UNITS) - 1
    if unit == 0:
        return f"{amount:.0f} bytes"
    digits = "#.3g" if round(amount) < 1000 else "#.0f"
    return f"{amount:{digits}} {_BINARY_UNITS[unit]}"


def _orbit_runs(skeleton: SkeletonBlocks) -> list[tuple[float, int]]:
    """The skeleton's orbit weights as runs ``(weight, length)`` in orbit
    order: the first star's interior, ``w_{-1}``, ``w_1`` and the second
    star's interior."""
    p, interior = skeleton.params, skeleton.interior
    return [
        (interior, p.m1 - 1), (skeleton.w_minus_1, 1),
        (skeleton.w_plus_1, 1), (interior, p.m2 - 1),
    ]


def _weights_json(
    params: TfsParams, runs: list[tuple[float, int]]
) -> bytearray:
    """The ``"weights"`` object as ``json.dumps(payload, indent=2)`` writes
    ``{str(label): _sig10(weight)}`` one level deep, in orbit order, as
    ASCII bytes, from the weights as runs ``(weight, length)`` in orbit
    order.

    Each run formats its value once and writes its labels by
    ``_label_lines``, so the cost in Python is per run and per hundred
    labels; a run breaks where the labels skip 0.  The text's length
    follows from the runs: every line is ``    "<label>": <value>,\n``,
    ten characters besides its label and value, and the labels' digits
    are ``_digits_to`` each star's length.  The text is allocated in one
    piece before any of it is written, so a report too large to hold
    fails at once, with ``MemoryError``, and one that fits is held once.
    """
    m1, m2 = params.m1, params.m2
    # the braces' 2 + 4 characters, less the last line's comma and newline
    size = 4 + 10 * (m1 + m2) + m1 + _digits_to(m1) + _digits_to(m2)
    lines, start = [], 0
    for weight, length in runs:
        value = json.dumps(_sig10(weight))
        size += length * len(value)
        stop = start + length
        for lo, hi in ((start, min(stop, m1)), (max(start, m1), stop)):
            if lo < hi:
                # the labels skip 0 between the stars
                first = lo - m1 if lo < m1 else lo - m1 + 1
                lines.append((first, first + hi - lo, value))
        start = stop
    try:
        text = bytearray(size)
    except (MemoryError, OverflowError):
        raise MemoryError(
            f"Unable to allocate {_binary_size(size)} for the weights of "
            f"{m1 + m2} orbits"
        ) from None
    text[:2] = b"{\n"
    end = 2
    for first, stop, value in lines:
        for block in _label_lines(first, stop, value):
            data = block.encode()
            text[end : end + len(data)] = data
            end += len(data)
    # the last entry takes no comma
    text[end - 2 :] = b"\n  }"
    return text


def cmd_solve(args: argparse.Namespace) -> int:
    params = _params_from(args)
    payload, skeleton = _solve_payload(params, args)
    # no key before "weights" can hold the placeholder text
    head, _, tail = json.dumps(payload, indent=2).partition('"weights": {}')
    weights = _weights_json(params, _orbit_runs(skeleton))
    _STDOUT.write(head + '"weights": ')
    _STDOUT.write(weights)
    _STDOUT.write(tail + "\n")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """The SLEM of each scheme, from the skeletons of three weightings:
    the optimum's, Metropolis's and the unit weights', read in that order,
    in O(1) of the branch lengths.  Max-degree and best-constant are
    ``I - alpha L``, whose SLEMs ``constant_weight_slems`` gives from the
    unit weights' report.  Since max-degree's own skeleton never fails, a
    request that fails reports the error a read of each scheme's own
    skeleton in row order would meet first.  ``solve --scheme`` reads
    those skeletons, for ``lambda_min``."""
    params = _params_from(args)
    solution = optimal_weights(params)
    optimal = solution.skeleton.report(solution.s).slem
    metropolis = metropolis_skeleton(params).report().slem
    max_degree, best_constant = constant_weight_slems(
        params, _CONVENTIONS[args.max_degree_convention]
    )
    slems = [optimal, max_degree, metropolis, best_constant]
    _write_csv(["scheme", "slem"], "%s,%.10g\r\n", [SCHEMES, slems])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if not math.isfinite(args.perturb):
        raise InvalidParameterError(
            f"--perturb must be finite, got {args.perturb}"
        )
    solution = optimal_weights(params)
    certificate = build_dual_certificate(solution)
    weights = solution.skeleton
    if args.perturb:
        weights = SkeletonBlocks(
            params, solution.w_minus_1 + args.perturb, solution.w_plus_1
        )
    residuals = verify_certificate(certificate, weights)
    payload = {
        "params": {
            "m1": params.m1,
            "n1": params.n1,
            "m2": params.m2,
            "n2": params.n2,
        },
        "theta_star": _sig10(solution.theta_star),
        "s": _sig10(solution.s),
        "perturbation": args.perturb,
        "residuals": {
            key: _sig10(value) for key, value in residuals.as_dict().items()
        },
        "passes": residuals.passes(),
    }
    _STDOUT.write(json.dumps(payload, indent=2) + "\n")
    return 0 if residuals.passes() else 1


# A sweep's leading header, its leading cells as columns, and its shapes
# (m1, n1, m2, n2) as arrays that broadcast; cmd_sweep solves every shape
# in one batch.  Each kind's parser names its grid builder and columns.
def _fig2_sweep(args: argparse.Namespace) -> tuple:
    import numpy as np

    lo, hi = args.mbar_min, args.mbar_max
    if lo < 1:
        raise InvalidParameterError(f"mean-length range [{lo}, {hi}] must start at 1")
    if hi < lo:
        raise InvalidParameterError(f"empty mean-length range [{lo}, {hi}]")
    # each mean length m_bar gives the star of 18 branches of length m_bar
    # (nine a side as a TFS network), then the TFS shapes with n1 = 6,
    # n2 = 12 and 6 m1 + 12 m2 = 18 m_bar, by increasing m1: m1 = 2j -
    # m_bar % 2 and m2 = (3 m_bar - m1) / 2 for j = 1 .. (3 m_bar - 1) // 2,
    # which j = 0 turns into the star's m1 = m2 = m_bar
    def rows_to(m):  # the sum of (3 k + 1) // 2 rows over k = 1 .. m
        return (3 * m * (m + 1) // 2 + (m + 1) // 2) // 2

    check_array_size("the fig2 grid", rows_to(hi) - rows_to(lo - 1))
    m_bar = np.arange(lo, hi + 1)
    rows = (3 * m_bar + 1) // 2
    first = np.cumsum(rows) - rows
    m_bar = np.repeat(m_bar, rows)
    j = np.arange(m_bar.size) - np.repeat(first, rows)
    star = j == 0
    m1 = np.where(star, m_bar, 2 * j - m_bar % 2)
    m2 = (3 * m_bar - m1) // 2
    network = np.where(star, "star", "tfs")
    lead = [column.tolist() for column in (m_bar, network, m1, m2)]
    shapes = np.stack([m1, np.where(star, 9, 6), m2, np.where(star, 9, 12)])
    return ["m_bar", "network", "m1", "m2"], lead, shapes


def _grid_sweep(args: argparse.Namespace) -> tuple:
    import numpy as np

    if args.m1_max < 1 or args.m2_max < 1:
        raise InvalidParameterError("branch-length ranges must start at 1")
    check_array_size("--m1-max * --m2-max", args.m1_max * args.m2_max)
    m1, m2 = np.divmod(np.arange(args.m1_max * args.m2_max), args.m2_max)
    m1, m2 = m1 + 1, m2 + 1
    return ["m1", "m2"], [m1.tolist(), m2.tolist()], (m1, args.n1, m2, args.n2)


# sweep column -> BatchSolution field
_SWEEP_COLUMNS = {
    "slem": "s",
    "w_minus_1": "w_minus_1",
    "theta_star": "theta_star",
}


def cmd_sweep(args: argparse.Namespace) -> int:
    header, lead, shapes = args.grid(args)
    batch = optimal_weights_batch(*shapes)
    values = [getattr(batch, _SWEEP_COLUMNS[name]).tolist() for name in args.columns]
    row_format = ",".join(["%s"] * len(lead) + ["%.10g"] * len(values)) + "\r\n"
    _write_csv([*header, *args.columns], row_format, [*lead, *values])
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulation import (
        InsufficientSignalError,
        convergence_factor_estimate,
        random_initial_state,
        stratified_iterate,
        write_trajectory_csv,
    )

    params = _params_from(args)
    if args.steps < 0:
        raise InvalidParameterError(f"--steps must be >= 0, got {args.steps}")
    if not 2 <= args.tail <= args.steps:
        raise InvalidParameterError(
            f"--tail must be between 2 and --steps ({args.steps}), got {args.tail}"
        )
    if args.seed < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
    check_array_size("the node count", params.n_nodes)
    check_array_size("--steps + 1", args.steps + 1)
    if args.scheme == "optimal":
        weights = optimal_weights(params).weights
    else:
        weights = skeleton_weights(_scheme_skeleton(params, args.scheme, args))
    x0 = random_initial_state(params.n_nodes, args.seed)
    trajectory = stratified_iterate(params, weights, x0, args.steps)
    write_trajectory_csv(trajectory, _STDOUT)
    try:
        estimate = f"{convergence_factor_estimate(trajectory, args.tail):.10g}"
    except InsufficientSignalError:
        estimate = "nan"
    _STDOUT.write(f"# convergence_factor_estimate = {estimate}\r\n")
    return 0


def _write_csv(header: list[str], row_format: str, columns: list) -> None:
    # rows are computed before anything is written, so an input error
    # leaves stdout empty; no cell (digits, .10g floats, scheme names,
    # star or tfs) needs quoting, so these are csv.writer's excel bytes
    from .simulation import _format_rows

    _STDOUT.write(",".join(header) + "\r\n" + _format_rows(row_format, columns))


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m1", type=int, required=True, help="first-star branch length")
    parser.add_argument("--n1", type=int, required=True, help="first-star branch count")
    parser.add_argument("--m2", type=int, required=True, help="second-star branch length")
    parser.add_argument("--n2", type=int, required=True, help="second-star branch count")


# the namespace attribute that the first and the second command word set
_COMMAND_DESTS = ("command", "kind")


@functools.cache
def _command_parsers() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """The one grammar of every request: each parser by the command words
    that select it, recorded as it is created.  The top-level parser is
    under ``()``, each command's under ``("solve",)`` and so on, and each
    ``sweep`` kind's under ``("sweep", kind)``."""
    parsers = {}

    def add_command(subparsers, *words: str, **kwargs) -> argparse.ArgumentParser:
        parsers[words] = subparsers.add_parser(words[-1], **kwargs)
        return parsers[words]

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-degree-convention",
        choices=sorted(_CONVENTIONS),
        default="dmax",
        help="max-degree weight 1/d_max or 1/(d_max+1)",
    )

    parser = parsers[()] = argparse.ArgumentParser(
        prog="fusedstar",
        description="Optimal consensus-averaging weights for two fused stars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = add_command(
        sub, "solve", parents=[common], help="solve one network, report JSON"
    )
    _add_params(p_solve)
    p_solve.add_argument("--scheme", choices=SCHEMES, default="optimal")

    p_compare = add_command(
        sub, "compare", parents=[common], help="SLEM of every weighting scheme, CSV"
    )
    _add_params(p_compare)

    p_verify = add_command(sub, "verify", help="check the optimality certificate")
    _add_params(p_verify)
    p_verify.add_argument(
        "--perturb",
        type=float,
        default=0.0,
        help="shift the first center-adjacent weight before checking; "
        "write a negative shift as --perturb=-1e-3",
    )

    p_sweep = add_command(sub, "sweep", help="SLEM or boundary-weight grids, CSV")
    kinds = p_sweep.add_subparsers(dest="kind", required=True)
    p_fig2 = add_command(
        kinds, "sweep", "fig2", help="slem by mean branch length, n1=6, n2=12"
    )
    p_fig2.add_argument("--mbar-min", type=int, default=1)
    p_fig2.add_argument("--mbar-max", type=int, default=8)
    p_fig2.set_defaults(grid=_fig2_sweep, columns=("slem",))
    for kind, columns in [("fig3", ("slem",)), ("fig4", ("w_minus_1",)),
                          ("custom", ("slem", "w_minus_1", "theta_star"))]:
        p_grid = add_command(
            kinds, "sweep", kind, help=f"{', '.join(columns)} over m1, m2"
        )
        p_grid.add_argument("--m1-max", type=int, default=10)
        p_grid.add_argument("--m2-max", type=int, default=10)
        p_grid.set_defaults(grid=_grid_sweep, columns=columns)
    for kind in ("fig3", "fig4"):
        parsers["sweep", kind].set_defaults(n1=2, n2=22)
    for name in ("--n1", "--n2"):
        parsers["sweep", "custom"].add_argument(name, type=int, required=True)

    p_sim = add_command(
        sub, "simulate", parents=[common], help="run consensus rounds, trajectory CSV"
    )
    _add_params(p_sim)
    p_sim.add_argument("--scheme", choices=SCHEMES, default="optimal")
    p_sim.add_argument("--steps", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--tail", type=int, default=50)
    return parsers


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The top-level parser's ``parse_args(argv)``, in one argparse walk
    where ``argv`` starts with a command's words.

    The top-level parser classifies every token before it hands the rest
    to the command's parser, and ``sweep``'s parser does so again for its
    kind's, so each option is scanned two or three times.  Here the
    longest known command words pick their parser, which parses the rest
    into a namespace preset with those words, as the parsers above it
    would have set them.  Any other list (help, an unknown command), or
    one that the command's parser leaves a token of, goes to the
    top-level parser, so help, usage errors and exit codes stay its own.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parsers = _command_parsers()
    # the longest known command words, () where there are none
    words = next(w for w in (tuple(argv[:2]), tuple(argv[:1]), ()) if w in parsers)
    if words:
        preset = argparse.Namespace(**dict(zip(_COMMAND_DESTS, words)))
        args, rest = parsers[words].parse_known_args(argv[len(words) :], preset)
        if not rest:
            return args
    return parsers[()].parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse has written its usage error (2) or its help (0)
        return exc.code
    # the parser is built once per process, so the command is looked up
    # here: a ``cmd_*`` rebound since then (say, by a tracing wrapper) runs
    command = globals()[f"cmd_{args.command}"]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; as the Python docs' note on
        # SIGPIPE shows, point stdout at devnull so that the flush at exit
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's names the array it could not allocate and the weight
        # writer the report, while Python's own (a list that cannot grow)
        # may have no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NO_MEMORY
    except (SelfCheckError, BlockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
