"""Galilean 3-space trajectory toolkit.

Exact vector algebra of the Galilean 3-space, Frenet data of admissible
curves, closed-form solutions of the magnetic and N-magnetic trajectory
equations under constant Killing fields, and an independent fixed-step
RK4 oracle (`verify`) to check the closed forms against the raw ODE systems.
"""

from galmag import errors, frenet, galilean, magnetic, oracle
from galmag.errors import *  # noqa: F401,F403
from galmag.galilean import *  # noqa: F401,F403
from galmag.frenet import *  # noqa: F401,F403
from galmag.magnetic import *  # noqa: F401,F403
from galmag.oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, *galilean.__all__, *frenet.__all__, *magnetic.__all__,
           *oracle.__all__]
