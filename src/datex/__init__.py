"""datex: optimal rate allocation and linear coding for cooperative data
exchange among terminals with correlated side information, some of which
may act purely as helpers.

The package computes minimum weighted-sum-rate transmission allocations,
certifies them against an exact cut-set linear program, and constructs
finite-field transmission schemes that realize them.  Import each name
from its module (datex.instance, datex.dual, datex.oracle, ...).
"""

__version__ = "0.1.0"
