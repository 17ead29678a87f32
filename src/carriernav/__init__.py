"""carriernav: carrier-graph scene representation and displaced-object
navigation benchmark on a deterministic grid world.

The submodules are the API: import each name from the module that
defines it (``carriernav.graph``, ``carriernav.policy``, ...)."""

__version__ = "0.1.0"
