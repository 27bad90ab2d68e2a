"""Load generator, tracer and checks behind ``perfbench/run.py``.

The benchmark drives the real ``python -m repro.serving`` server over HTTP
with the public :class:`repro.serving.HTTPClient`, checks every served
envelope against an in-process engine reference, and (with ``--trace 1``)
breaks one run's time down per layer from spans its own recorder takes
around the program's public entry points.
"""
