"""The live-runtime benchmark (see README.md); run ``python3 bench/run.py``."""
