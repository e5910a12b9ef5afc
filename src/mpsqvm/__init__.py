"""MPS quantum virtual machine: kernel language, gate IR, and two simulators."""

from .backends import RunRecord, execute, run_program
from .bench import BenchRecord, RoundCircuitSpec, generate_round_circuit, run_grid
from .dense import DenseState
from .hamiltonian import PauliHamiltonian, parse_hamiltonian
from .ir import CompositeInstruction, GateKind, Instruction
from .mps import MpsState, TruncationPolicy
from .parser import ParseError, SourceUnit, parse, unparse
from .vqe import SweepResult, energy, sweep

__all__ = [
    "BenchRecord",
    "CompositeInstruction",
    "DenseState",
    "GateKind",
    "Instruction",
    "MpsState",
    "ParseError",
    "PauliHamiltonian",
    "RoundCircuitSpec",
    "RunRecord",
    "SourceUnit",
    "SweepResult",
    "TruncationPolicy",
    "energy",
    "execute",
    "generate_round_circuit",
    "parse",
    "parse_hamiltonian",
    "run_grid",
    "run_program",
    "sweep",
    "unparse",
]
