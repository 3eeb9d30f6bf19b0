"""Functor base classes (§3.1).

Functors "apply specific functions to streams of records passing through
them"; a subset can execute directly on ASUs.  ASU eligibility requires
*bounded per-record computation* and *bounded internal state*, and the functor
must be a prevalidated kernel or have statically determinable behaviour —
the constraints that isolate ASUs from damage by competing functors.

Cost is declared as comparisons-per-record plus a per-record touch cost; the
emulator converts it to cycles through
:class:`~repro.emulator.params.SystemParams`, making load prediction possible
("known bounds on functor computation cost per unit of I/O facilitates these
resource scheduling decisions", §3.3).
"""

from __future__ import annotations

import abc
import math

import numpy as np

from ..emulator.params import SystemParams

__all__ = ["Functor", "FunctorError", "asu_eligible"]

UNBOUNDED = math.inf


class FunctorError(RuntimeError):
    """Raised on functor misuse (arity mismatch, ineligible placement...)."""


class Functor(abc.ABC):
    """A primitive processing step in the dataflow network.

    Subclasses implement :meth:`apply` (the real record transformation) and
    declare their cost/state bounds and algebraic properties.
    """

    #: human-readable functor kind
    name: str = "functor"
    #: number of input ports
    n_inputs: int = 1
    #: number of output ports
    n_outputs: int = 1
    #: True when the operation is commutative and associative over records,
    #: allowing the system to replicate instances and route records to any of
    #: them (§3.1: "the system may replicate multiple instances of a functor")
    replicable: bool = False
    #: True for prepackaged, prevalidated kernel primitives (sort, merge...)
    verified_kernel: bool = False

    # -- resource bounds ------------------------------------------------------
    @abc.abstractmethod
    def compares_per_record(self) -> float:
        """Declared comparison count per record (may be UNBOUNDED)."""

    def state_bytes(self) -> float:
        """Bound on internal state; UNBOUNDED disqualifies ASU placement."""
        return 0.0

    def cost_cycles(self, n_records: int, params: SystemParams) -> float:
        """Total cycles to process ``n_records`` under ``params``."""
        cpr = self.compares_per_record()
        if math.isinf(cpr):
            raise FunctorError(
                f"{self.name}: unbounded per-record cost cannot be scheduled"
            )
        return n_records * (
            cpr * params.cycles_per_compare + params.cycles_per_record
        )

    def cost_cycles_batch(self, n_records, params: SystemParams):
        """Vectorized :meth:`cost_cycles` over an array of batch sizes.

        Evaluates the same expression with the same operand grouping, so
        each element is bit-identical to the scalar path.  Returns a NumPy
        array.
        """
        cpr = self.compares_per_record()
        if math.isinf(cpr):
            raise FunctorError(
                f"{self.name}: unbounded per-record cost cannot be scheduled"
            )
        per_record = cpr * params.cycles_per_compare + params.cycles_per_record
        return np.asarray(n_records, dtype=np.float64) * per_record

    # -- the real computation ----------------------------------------------------
    @abc.abstractmethod
    def apply(self, batch: np.ndarray) -> list[np.ndarray]:
        """Transform one input batch into one batch per output port.

        Functors with ``n_inputs > 1`` (e.g. merge) override richer entry
        points; ``apply`` remains the single-input fast path.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def asu_eligible(functor: Functor, asu_mem_bytes: int) -> tuple[bool, str]:
    """Decide whether a functor may be placed on an ASU.

    Returns (eligible, reason).  Mirrors §3.1: bounded per-record processing,
    bounded internal state that fits ASU memory, and verified kernels for
    anything beyond simple streaming steps.
    """
    cpr = functor.compares_per_record()
    if math.isinf(cpr):
        return False, "per-record computation is unbounded"
    state = functor.state_bytes()
    if math.isinf(state):
        return False, "internal state is unbounded"
    if state > asu_mem_bytes:
        return False, (
            f"state bound {state:.0f}B exceeds ASU memory {asu_mem_bytes}B"
        )
    return True, "ok"
