"""End-to-end and per-layer benchmark for colonnade_ray (see run.py)."""
