"""tiercast: joint user-cell association and enhanced-view resource allocation
for two-tier 360 video delivery over dense small-cell networks.

Import names from the submodules (``tiercast.problem``, ``tiercast.solvers``
and the rest); the package root re-exports none of them."""

__version__ = "0.1.0"
