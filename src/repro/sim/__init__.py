"""Deterministic discrete-event simulation kernel.

The kernel is the substrate substitution for the paper's 1997 LAN testbed:
every protocol in :mod:`repro` runs on top of a single-threaded, seeded,
discrete-event engine so that experiments are exactly reproducible.

Public classes:

- :class:`repro.sim.engine.SimulationEngine` -- the event loop.
- :class:`repro.sim.engine.EventHandle` -- cancellable handle for a
  scheduled callback.
- :class:`repro.sim.process.Process` -- base class for simulated entities
  (sites, failure detectors, clients).
- :class:`repro.sim.rng.RngRegistry` -- named deterministic random streams.
- :class:`repro.sim.trace.TraceLog` -- structured event tracing.
"""
