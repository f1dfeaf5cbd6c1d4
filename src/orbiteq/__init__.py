"""Exact arithmetic for one-sided shift spaces and the equivalences
between them: topological conjugacy, eventual conjugacy, and (strong)
continuous orbit equivalence, all certified or refuted with re-checkable
witnesses."""

from .config import RunConfig
from .errors import *
from .functions import *
from .generators import *
from .invariants import *
from .maps import *
from .orbit import *
from .shifts import *

__version__ = "0.1.0"
