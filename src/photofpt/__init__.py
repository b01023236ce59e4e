"""Classical threshold photodetector model.

Detection is the first passage of a drifting, diffusing energy accumulator
to an absorbing boundary; the rate is the inverse mean first-passage time.
The package provides exact series for the interval and cube boundaries,
Monte Carlo simulation for all boundaries including the sphere, the
vacuum-field correlation behind the noise amplitude, and a validation
suite tying them together.

The package namespace carries the names of the README quick start; every
other name is imported from its submodule: params, analytic, mc, field,
validation or cli.

No module imports scipy at load time: the functions that need it import
scipy.special on their first call. Those are `field`'s exponential
integrals and the image-sum survivals, which checks 7 to 11 of `validate`
reach; `photofpt rate`, `sweep` and `mc` on every boundary, and the two
finite-difference oracles in `validation`, run on numpy alone. Every
quadrature in the package is the one tanh-sinh rule in `params`, on
numpy arrays, so scipy.integrate loads nowhere.
"""

__version__ = "0.1.0"

from .params import DEFAULT_SEED, AtomModel, DetectorParams
from .analytic import mean_fpt_1d, rate_1d, rate_3d
from .field import sigma_const
from .mc import MCConfig, simulate_fpt_richardson, zscore
