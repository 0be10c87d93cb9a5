"""Baselines the paper compares against.

:class:`repro.baselines.p2p_2pc.PointToPointReplica` is the traditional
read-one/write-all protocol over point-to-point messages with centralized
two-phase commit and WAIT locking — the starting point the paper adapts to
broadcast environments.  Unlike the broadcast protocols it acquires locks
incrementally and waits on conflicts, so it exhibits (local and
distributed) deadlocks, resolved by waits-for cycle detection and
timeouts.  Experiment E6 contrasts its deadlock rate with RBP's
deadlock-freedom.
"""
