"""Command-line entry point: ``run``, ``vqe``, and ``bench`` subcommands.

Exit codes: 0 success; 1 for an error raised while a command reads and checks
its flags, environment values and input files, and for a path that cannot be
read or written; 2 for any other error raised once the simulation has started.
Range flags use ``start:stop:N`` where the third field is a point count for
``vqe --grid`` and a step for ``bench --qubits/--rounds``. Environment
variables ``MPSQVM_CUTOFF``, ``MPSQVM_MAX_BOND``, and
``MPSQVM_ORACLE_QUBIT_CAP`` override defaults; explicit flags win over the
environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import TypeVar

from . import bench as bench_mod
from . import vqe as vqe_mod
from .backends import BACKENDS, execute, register_size
from .gates import check_count
from .hamiltonian import parse_hamiltonian
from .ir import inline
from .mps import TruncationPolicy
from .parser import parse


_T = TypeVar("_T")


def _number(text: str, kind: Callable[[str], _T], expected: str, source: str = "") -> _T:
    """``kind(text)``, else the one complaint about text that is not a
    number, ``expected <expected>, got '<text>'``, as an
    ``ArgumentTypeError``: argparse shows that type's message after the flag's
    name. Every other caller names its flag or variable as ``source``. The
    range of the number is the library's rule, not this function's."""
    try:
        return kind(text)
    except ValueError:
        prefix = f"{source}: " if source else ""
        raise argparse.ArgumentTypeError(f"{prefix}expected {expected}, got {text!r}") from None


def _flag_or_env(value: _T | None, name: str, read: Callable[..., _T]) -> _T | None:
    """A flag's ``value`` if it was given, else the number that environment
    variable ``name`` holds, read by the flag's own type, else None."""
    if value is None and name in os.environ:
        return read(os.environ[name], source=name)
    return value


# every numeric flag; the library checks its range (TruncationPolicy,
# register_size, check_count, check_grid, check_cells)
_real = partial(_number, kind=float, expected="a number")
_integer = partial(_number, kind=int, expected="an integer")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mpsqvm", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_backend_flags(p: argparse.ArgumentParser, backends: bool = True) -> None:
        if backends:  # bench runs only the MPS backend
            p.add_argument("--backend", choices=BACKENDS, default="mps")
        p.add_argument("--cutoff", type=_real, default=None,
                       help="singular-value truncation threshold "
                            f"(default {TruncationPolicy.cutoff:g})")
        p.add_argument("--max-bond", type=_integer, default=None,
                       help="hard bond-dimension cap (default unlimited)")
        p.add_argument("--cutoff-mode", choices=("relative", "absolute"),
                       default="relative")
        p.add_argument("--out", type=Path, default=None,
                       help="write result file here instead of stdout")

    run = sub.add_parser("run", help="execute one kernel")
    run.add_argument("--source", required=True,
                     help="kernel source file (.qk) or '-' for stdin")
    run.add_argument("--kernel", required=True, help="kernel name to execute")
    run.add_argument("--args", default="",
                     help="comma-separated values for the kernel's parameters")
    run.add_argument("--qubits", type=_integer, default=None,
                     help="register size (default: smallest covering the program)")
    run.add_argument("--shots", type=_integer, default=1024)
    run.add_argument("--seed", type=_integer, default=None,
                     help="seed of the shot sampler (default: fresh entropy)")
    add_backend_flags(run)
    run.set_defaults(handler=_cmd_run)

    vqe = sub.add_parser("vqe", help="sweep <H>(theta) over a parameter grid")
    vqe.add_argument("--ansatz", required=True, help="kernel source file (.qk) or '-'")
    vqe.add_argument("--kernel", default="ansatz", help="ansatz kernel name")
    vqe.add_argument("--ham", required=True, help="Pauli Hamiltonian file")
    vqe.add_argument("--grid", default="-3.141592653589793:3.141592653589793:100",
                     help="theta grid start:stop:count")
    vqe.add_argument("--shots", type=_integer, default=None,
                     help="estimate terms by basis rotation + sampling")
    vqe.add_argument("--seed", type=_integer, default=0,
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
    bench.add_argument("--seeds", type=_integer, default=10, help="random circuits per cell")
    bench.add_argument("--chi-cap", type=_integer, default=4096,
                       help="skip a cell once its bond dimension exceeds this")
    bench.add_argument("--time-budget", type=_real, default=60.0,
                       help="per-seed wall-clock budget in seconds (inf: no limit)")
    bench.add_argument("--plot-out", type=Path, default=None,
                       help="also write a gnuplot-style surface data file")
    add_backend_flags(bench, backends=False)
    bench.set_defaults(handler=_cmd_bench)

    return top


def _policy_from(args: argparse.Namespace) -> TruncationPolicy:
    cutoff = _flag_or_env(args.cutoff, "MPSQVM_CUTOFF", _real)
    max_bond = _flag_or_env(args.max_bond, "MPSQVM_MAX_BOND", _integer)
    return TruncationPolicy(
        cutoff=TruncationPolicy.cutoff if cutoff is None else cutoff, max_bond=max_bond,
        relative=args.cutoff_mode == "relative",
    )


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file, or of stdin for ``-``."""
    try:
        if path == "-":  # decoded here, so the locale cannot mask bad bytes
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{'<stdin>' if path == '-' else path}: {exc}") from None


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _get_kernel(source_text: str, name: str):
    unit = parse(source_text)
    if name not in unit.kernels:
        raise ValueError(f"kernel '{name}' not found; unit defines {sorted(unit.kernels)}")
    return unit.kernels[name]


# Each handler reads a command's inputs and returns its run as ``simulate``.
# It only turns text into values; every rule on a value is a check that the
# drivers apply too (backends.register_size, gates.check_count, ir.inline,
# vqe.check_grid, bench.check_cells), so each rule has one message.
def _cmd_run(args: argparse.Namespace) -> Callable[[], None]:
    kernel = _get_kernel(_read_text(args.source), args.kernel)
    # no text passes no values; otherwise every field, empty or not, is one value
    fields = args.args.split(",") if args.args.strip() else []
    # --args x,y binds like the call kernel(b, x, y)
    program = inline(kernel, [_real(v, source="--args") for v in fields])
    n = register_size(program, args.qubits, args.backend)
    check_count("shots", args.shots)
    if args.seed is not None:
        check_count("seed", args.seed, 0)
    policy = _policy_from(args)

    def simulate() -> None:
        start = time.perf_counter()
        record = execute(program, n, args.backend, policy, shots=args.shots, seed=args.seed)
        wall_time = time.perf_counter() - start
        _emit(json.dumps(dataclasses.asdict(record), indent=2) + "\n", args.out)
        print(f"wall_time: {wall_time:.6f} s", file=sys.stderr)

    return simulate


def _parse_grid(text: str, what: str) -> tuple[float, float, int]:
    """The values of a ``start:stop:count`` range, checked by the rule that
    ``sweep`` applies, :func:`~mpsqvm.vqe.check_grid`."""
    fields = text.split(":")
    if len(fields) != 3:
        raise ValueError(f"bad {what} range {text!r}, expected start:stop:count")
    count = _integer(fields[2], source=what)
    start, stop = (_real(f, source=what) for f in fields[:2])
    vqe_mod.check_grid(start, stop, count)
    return start, stop, count


def _parse_steps(text: str, what: str) -> list[int]:
    """The values of a ``start:stop:step`` range; the cells they make are
    checked by :func:`~mpsqvm.bench.check_cells` once both lists are read."""
    fields = text.split(":")
    if len(fields) != 3:
        raise ValueError(f"bad {what} range {text!r}, expected start:stop:step")
    start, stop, step = (_integer(f, source=what) for f in fields)
    if step < 1 or stop < start:
        raise ValueError(f"bad {what} range {text!r}")
    return list(range(start, stop + 1, step))


def _cmd_vqe(args: argparse.Namespace) -> Callable[[], None]:
    if args.ansatz == args.ham == "-":
        raise ValueError("--ansatz and --ham cannot both read stdin ('-')")
    kernel = _get_kernel(_read_text(args.ansatz), args.kernel)
    hamiltonian = parse_hamiltonian(_read_text(args.ham))
    vqe_mod.formal_name(kernel)
    register_size(kernel.children, hamiltonian.n, args.backend)
    if args.shots is not None:
        check_count("shots", args.shots)
    check_count("seed", args.seed, 0)
    start, stop, count = _parse_grid(args.grid, "--grid")
    policy = _policy_from(args)

    def simulate() -> None:
        result = vqe_mod.sweep(kernel, hamiltonian, start, stop, count, backend=args.backend,
                               policy=policy, shots=args.shots, seed=args.seed)
        rows = "".join(f"{t!r},{e!r}\n" for t, e in zip(result.thetas, result.energies))
        _emit("theta,energy\n" + rows, args.out)
        print(f"argmin_theta={result.argmin_theta!r} min_energy={result.min_energy!r}",
              file=sys.stderr)

    return simulate


def _cmd_bench(args: argparse.Namespace) -> Callable[[], None]:
    qubits = _parse_steps(args.qubits, "--qubits")
    rounds = _parse_steps(args.rounds, "--rounds")
    bench_mod.check_cells(qubits, rounds, args.seeds, args.chi_cap, args.time_budget)
    policy = _policy_from(args)

    def simulate() -> None:
        records = bench_mod.run_grid(qubits, rounds, args.seeds, policy,
                                     chi_budget=args.chi_cap, time_budget=args.time_budget)
        csv_text, plot_text = bench_mod.emit_report(records)
        _emit(csv_text, args.out)
        if args.plot_out is not None:
            args.plot_out.write_text(plot_text, encoding="utf-8")

    return simulate


def main(argv: list[str] | None = None) -> int:
    simulate = None  # set once the inputs are read and checked
    try:
        args = build_parser().parse_args(argv)
        simulate = args.handler(args)
        simulate()
    except SystemExit as exc:  # from argparse: 0 after --help, 2 for a rejected command line
        return 1 if exc.code else 0
    except (ValueError, argparse.ArgumentTypeError, RuntimeError, OSError,
            MemoryError) as exc:
        if simulate is None or isinstance(exc, OSError):  # OSError: an unusable path
            print(f"mpsqvm: error: {exc}", file=sys.stderr)
            return 1
        print(f"mpsqvm: execution error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
