"""Experience governance and experiential memory for coding agents.

The pipeline turns raw (issue, PR, patch) triplets into validated
dual-layer experience cards and indexes them; the service side exposes
searching and browsing primitives over the resulting memory.

Names are imported from the submodules (``memgov.store``,
``memgov.pipeline``, ...). The package itself re-exports nothing, so
importing one submodule loads only what that submodule needs.
"""

__version__ = "0.1.0"
