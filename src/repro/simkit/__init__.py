"""A small deterministic discrete-event simulation (DES) kernel.

The characterization testbed has several pieces that are naturally
event-driven -- the PID thermal control loop, the campaign executor with
its watchdog/reset switch, and the Jammer detector's QoS accounting.
``repro.simkit`` provides the minimal substrate they share:

- :class:`~repro.simkit.events.Simulator` -- a priority-queue event loop
  with deterministic tie-breaking.
- :class:`~repro.simkit.resources.Resource` -- a counted resource with a
  FIFO wait queue, used to model cores occupied by benchmark runs.

The kernel is intentionally simple (single-threaded, virtual time) and
fully deterministic: two events at the same timestamp fire in insertion
order.
"""

from repro.simkit.events import Event, Simulator
from repro.simkit.resources import Resource

__all__ = ["Event", "Simulator", "Resource"]
