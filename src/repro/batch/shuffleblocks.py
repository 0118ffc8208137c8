"""Stub left by the retired typed block shuffle.

Every reducing stage spills, merges and reduces through the one pickle
run format (:mod:`repro.mapreduce.shuffle`).  This module exists only
because ``benchmarks/suite/staged.py`` still asks :func:`active_spec`
which shuffle a job would use; it is deleted together with that file.
"""


def active_spec(conf: object) -> None:
    """Always ``None``: no job runs a typed shuffle."""
    return None
