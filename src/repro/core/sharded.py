"""Placeholder for the deleted sharded refresh.

Every view refreshes through the one per-step pipeline of
:mod:`repro.core.batched`.  This module stays, empty, only because the
span tracer in ``bench/tracing.py`` imports it when it installs its
wrappers; a change to the benchmark harness deletes both together.
"""
