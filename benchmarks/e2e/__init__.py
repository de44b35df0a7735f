"""End-to-end and per-layer wall-clock benchmark of the chunk-cache stack.

Declared by ``BENCHMARK.json`` at the repo root; see ``README.md`` in
this directory for how to run it and what every metric means.  The
package measures every layer from outside (timing proxies at public
seams) and changes nothing under ``src/``.
"""
