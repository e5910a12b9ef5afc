"""Command-line entry point: ``run``, ``vqe``, and ``bench`` subcommands.

Exit codes: 0 success, 1 usage/parse error, 2 execution error. Range flags use
``start:stop:N`` where the third field is a point count for ``vqe --grid`` and
a step for ``bench --qubits/--rounds``. Environment variables
``MPSQVM_CUTOFF``, ``MPSQVM_MAX_BOND``, and ``MPSQVM_ORACLE_QUBIT_CAP``
override defaults; explicit flags win over the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

from . import bench as bench_mod
from . import vqe as vqe_mod
from .backends import BACKENDS, execute
from .dense import oracle_qubit_cap
from .hamiltonian import HamiltonianFormatError, parse_hamiltonian
from .ir import IrError, inline, num_qubits
from .mps import TruncationPolicy
from .parser import ParseError, parse


_T = TypeVar("_T")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _env_number(name: str, kind: type[int] | type[float]) -> int | float | None:
    if name not in os.environ:
        return None
    text = os.environ[name]
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{name}={text!r} is not a valid {kind.__name__}") from None


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise UsageError(f"{what} value {text.strip()!r} is not a finite number")


def _flag_type(kind: Callable[[str], _T], accept: Callable[[_T], bool],
               expected: str) -> Callable[[str], _T]:
    """argparse type: ``kind(text)`` if ``accept`` holds for it, else a usage
    error that names ``expected``."""

    def parse(text: str) -> _T:
        try:
            value = kind(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_count = _flag_type(int, lambda v: v >= 1, "an integer >= 1")  # shots, seeds per cell, chi cap
_seed = _flag_type(int, lambda v: v >= 0, "an integer >= 0")
# a positive duration; inf means no limit, and NaN fails the comparison
_seconds = _flag_type(float, lambda v: v > 0, "a number of seconds > 0")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="mpsqvm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_backend_flags(p: argparse.ArgumentParser, backends: bool = True) -> None:
        if backends:  # bench runs only the MPS backend
            p.add_argument("--backend", choices=BACKENDS, default="mps")
        p.add_argument("--cutoff", type=float, default=None,
                       help="singular-value truncation threshold "
                            f"(default {TruncationPolicy.cutoff:g})")
        p.add_argument("--max-bond", type=int, default=None,
                       help="hard bond-dimension cap (default unlimited)")
        p.add_argument("--cutoff-mode", choices=("relative", "absolute"),
                       default="relative")
        p.add_argument("--out", type=Path, default=None,
                       help="write result file here instead of stdout")

    run = sub.add_parser("run", parents=[], help="execute one kernel")
    run.add_argument("--source", required=True,
                     help="kernel source file (.qk) or '-' for stdin")
    run.add_argument("--kernel", required=True, help="kernel name to execute")
    run.add_argument("--args", default="",
                     help="comma-separated values for the kernel's parameters")
    run.add_argument("--qubits", type=_count, default=None,
                     help="register size (default: smallest covering the program)")
    run.add_argument("--shots", type=_count, default=1024)
    run.add_argument("--seed", type=_seed, default=None,
                     help="seed of the shot sampler (default: fresh entropy)")
    add_backend_flags(run)
    run.set_defaults(handler=_cmd_run)

    vqe = sub.add_parser("vqe", help="sweep <H>(theta) over a parameter grid")
    vqe.add_argument("--ansatz", required=True, help="kernel source file (.qk) or '-'")
    vqe.add_argument("--kernel", default="ansatz", help="ansatz kernel name")
    vqe.add_argument("--ham", required=True, help="Pauli Hamiltonian file")
    vqe.add_argument("--grid", default="-3.141592653589793:3.141592653589793:100",
                     help="theta grid start:stop:count")
    vqe.add_argument("--shots", type=_count, default=None,
                     help="estimate terms by basis rotation + sampling")
    vqe.add_argument("--seed", type=_seed, default=0,
                     help="seed of the --shots samplers (default 0, so reruns repeat)")
    add_backend_flags(vqe)
    vqe.set_defaults(handler=_cmd_vqe)
    # let "--grid -3.14:3.14:100" pass a leading-minus value without "="
    vqe._negative_number_matcher = re.compile(r"^-\d")

    # no abbreviations, so "--seed" is rejected rather than read as "--seeds"
    bench = sub.add_parser("bench", help="random-circuit memory-scaling grid",
                           allow_abbrev=False)
    bench.add_argument("--qubits", default="5:85:5", help="qubit range start:stop:step")
    bench.add_argument("--rounds", default="2:10:2", help="round range start:stop:step")
    bench.add_argument("--seeds", type=_count, default=10, help="random circuits per cell")
    bench.add_argument("--chi-cap", type=_count, default=4096,
                       help="skip a cell once its bond dimension exceeds this")
    bench.add_argument("--time-budget", type=_seconds, default=60.0,
                       help="per-seed wall-clock budget in seconds (inf: no limit)")
    bench.add_argument("--plot-out", type=Path, default=None,
                       help="also write a gnuplot-style surface data file")
    add_backend_flags(bench, backends=False)
    bench.set_defaults(handler=_cmd_bench)

    return top


def _policy_from(args: argparse.Namespace) -> TruncationPolicy:
    cutoff = args.cutoff if args.cutoff is not None else _env_number("MPSQVM_CUTOFF", float)
    max_bond = args.max_bond if args.max_bond is not None else _env_number("MPSQVM_MAX_BOND", int)
    try:
        return TruncationPolicy(
            cutoff=TruncationPolicy.cutoff if cutoff is None else cutoff, max_bond=max_bond,
            relative=args.cutoff_mode == "relative",
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file, or of stdin for ``-``."""
    try:
        if path == "-":  # decoded here, so the locale cannot mask bad bytes
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{'<stdin>' if path == '-' else path}: {exc}") from None


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _get_kernel(source_text: str, name: str):
    unit = parse(source_text)
    if name not in unit.kernels:
        raise UsageError(f"kernel '{name}' not found; unit defines {sorted(unit.kernels)}")
    return unit.kernels[name]


def _cmd_run(args: argparse.Namespace) -> None:
    kernel = _get_kernel(_read_text(args.source), args.kernel)
    # no text passes no values; otherwise every field, empty or not, is one value
    fields = args.args.split(",") if args.args.strip() else []
    try:  # --args x,y binds like the call kernel(b, x, y)
        program = inline(kernel, [_finite(v, "--args") for v in fields])
    except IrError as exc:  # a wrong --args count; the values are finite already
        raise UsageError(str(exc)) from None
    n = args.qubits
    if n is not None and n < num_qubits(program):
        raise UsageError(
            f"--qubits {n} is smaller than the program's qubit span {num_qubits(program)}"
        )
    policy = _policy_from(args)
    start = time.perf_counter()
    record = execute(program, n, args.backend, policy, shots=args.shots, seed=args.seed)
    wall_time = time.perf_counter() - start
    _emit(json.dumps(dataclasses.asdict(record), indent=2) + "\n", args.out)
    print(f"wall_time: {wall_time:.6f} s", file=sys.stderr)


def _parse_grid(text: str, what: str) -> tuple[float, float, int]:
    fields = text.split(":")
    if len(fields) != 3:
        raise UsageError(f"bad {what} range {text!r}, expected start:stop:count")
    try:
        count = int(fields[2])
    except ValueError:
        raise UsageError(f"bad {what} range {text!r}") from None
    if count < 2:
        raise UsageError(f"bad {what} range {text!r}, need a count of at least 2")
    return _finite(fields[0], what), _finite(fields[1], what), count


def _parse_steps(text: str, what: str, minimum: int) -> list[int]:
    fields = text.split(":")
    if len(fields) != 3:
        raise UsageError(f"bad {what} range {text!r}, expected start:stop:step")
    try:
        start, stop, step = (int(f) for f in fields)
    except ValueError:
        raise UsageError(f"bad {what} range {text!r}") from None
    if step < 1 or stop < start:
        raise UsageError(f"bad {what} range {text!r}")
    if start < minimum:
        raise UsageError(f"bad {what} range {text!r}, need a start of at least {minimum}")
    return list(range(start, stop + 1, step))


def _cmd_vqe(args: argparse.Namespace) -> None:
    if args.ansatz == args.ham == "-":
        raise UsageError("--ansatz and --ham cannot both read stdin ('-')")
    kernel = _get_kernel(_read_text(args.ansatz), args.kernel)
    hamiltonian = parse_hamiltonian(_read_text(args.ham))
    try:
        vqe_mod.formal_name(kernel)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    span = num_qubits(kernel.children)
    if span > hamiltonian.n:
        raise UsageError(
            f"kernel '{kernel.name}' spans {span} qubit(s), the Hamiltonian {hamiltonian.n}"
        )
    start, stop, count = _parse_grid(args.grid, "--grid")
    result = vqe_mod.sweep(
        kernel, hamiltonian, start, stop, count,
        backend=args.backend, policy=_policy_from(args),
        shots=args.shots, seed=args.seed,
    )
    rows = "".join(f"{t!r},{e!r}\n" for t, e in zip(result.thetas, result.energies))
    _emit("theta,energy\n" + rows, args.out)
    print(f"argmin_theta={result.argmin_theta!r} min_energy={result.min_energy!r}",
          file=sys.stderr)


def _cmd_bench(args: argparse.Namespace) -> None:
    records = bench_mod.run_grid(
        qubits=_parse_steps(args.qubits, "--qubits", 2),
        rounds=_parse_steps(args.rounds, "--rounds", 1),
        seeds_per_cell=args.seeds,
        policy=_policy_from(args),
        chi_budget=args.chi_cap,
        time_budget=args.time_budget,
    )
    csv_text, plot_text = bench_mod.emit_report(records)
    _emit(csv_text, args.out)
    if args.plot_out is not None:
        args.plot_out.write_text(plot_text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        if getattr(args, "backend", None) == "dense":
            # read here so a malformed cap is a usage error, not an execution error
            try:
                oracle_qubit_cap()
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        args.handler(args)
    except (ParseError, HamiltonianFormatError, UsageError, OSError) as exc:
        # OSError: a path that cannot be read or written
        print(f"mpsqvm: error: {exc}", file=sys.stderr)
        return 1
    except (IrError, ValueError, RuntimeError) as exc:
        print(f"mpsqvm: execution error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
