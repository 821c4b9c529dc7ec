"""Energy-harvesting wireless sensor network stack and simulator.

Subpackages cover the per-node energy ledger (:mod:`harvestsim.energy`),
harvest forecasting (:mod:`harvestsim.forecast`), the utility/residual-energy
trade-off optimizer (:mod:`harvestsim.optimizer`), the morphing application
(:mod:`harvestsim.app`), energy-aware routing (:mod:`harvestsim.routing`),
the low-power-listening MAC (:mod:`harvestsim.mac`), the radio channel
(:mod:`harvestsim.channel`), the deterministic slot+event engine
(:mod:`harvestsim.simcore`), and scenario/CLI plumbing
(:mod:`harvestsim.scenario`, :mod:`harvestsim.cli`).
"""

__version__ = "0.1.0"
