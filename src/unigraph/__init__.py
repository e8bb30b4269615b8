"""Tools for digraphs of unitary matrices: structural tests, certificates,
Cayley-digraph checkers, and the supporting matrix constructions.

Each library module's `__all__` is the one list of its public names; the
package re-exports all of them.
"""

__version__ = "0.1.0"

from .digraphs import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .groups import *  # noqa: F401,F403
from .linedigraphs import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .membership import *  # noqa: F401,F403
from .reporting import *  # noqa: F401,F403
