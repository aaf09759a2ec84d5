"""Doubly nonlinear stochastic PDE solver and verification harness.

Implements implicit variational time stepping for Dirichlet problems of the
form ``du - div gamma(grad u) dt + beta(u) dt = B(t, u) dW`` with monotone
subdifferential graphs ``gamma`` and ``beta``, regularized by Yosida
approximation and vanishing viscosity, driven by truncated cylindrical noise.

Submodules: ``convex`` (potentials, resolvents, conjugacy), ``grid``
(staggered Dirichlet discretization), ``noise`` (truncated spectral driver),
``solver`` (time integration), ``verify`` (limit-program diagnostics),
``config`` (fail-closed config files and the problem factory), ``acceptance``
(the criterion suite), ``cli`` (config-driven entry points).
"""

__version__ = "0.1.0"
