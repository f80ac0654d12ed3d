"""Phase retrieval via smoothed amplitude flow.

Recovers a signal from magnitudes of Gaussian linear measurements by
gradient descent on a loss whose absolute-value kink is replaced with a
quadratic cap near zero; ships comparison solvers, experiment drivers, and
numerical verification of the closed-form landscape analysis.

The namespace holds only __version__; the API is the modules themselves.
"""

__version__ = "0.1.0"
