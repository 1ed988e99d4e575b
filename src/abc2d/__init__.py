"""Exact quantum mechanics of two planar particles carrying charge and flux.

The charge-flux interaction is a point-flux vector potential, the
charge-charge interaction a 1/r attraction or repulsion.  The relative
problem reduces to a single particle in combined flux + Coulomb fields;
bound states solve in closed form for any flux, scattering for integer and
half-integer dimensionless flux.  Every closed form ships with an
independent numerical cross-check (see :mod:`abc2d.oracle` and
:mod:`abc2d.verify`).
"""

__version__ = "0.1.0"
