"""Process matrices, the quantum switch, and gravitational switch timing.

Subpackages by topic: :mod:`switchlab.linalg` (small dense complex linear
algebra), :mod:`switchlab.ops` (quantum operations and channel-state
conversion), :mod:`switchlab.process` (bipartite process matrices),
:mod:`switchlab.order` (causal game, switch, CHSH), :mod:`switchlab.gravity`
(Schwarzschild timing and clocks), :mod:`switchlab.agents` (few-level agent
model and trigger), :mod:`switchlab.cli` (scenario front-end).
"""

__version__ = "0.1.0"
