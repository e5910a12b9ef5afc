"""Seeded end-to-end and per-layer benchmark of mpsqvm; entry point ``run.py``."""
