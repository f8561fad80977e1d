"""Numerical laboratory for balanced metrics and Bergman-type expansions
on projectivized bundles over model Kahler bases.

Subpackage map:

- quadrature: chart quadrature rules and integration
- kahler:     Kahler structures from potentials, contraction, scalar curvature
- sections:   model spaces, holomorphic section bases, jets
- metrics:    bundle metric fields, curvature, hyperplane weights, Grams
- bergman:    L2 Grams, Bergman endomorphisms, expansion coefficients
- balancing:  pulled-back metrics, moment map, T-iteration, gradient flow,
              action spectra
- cli:        batch experiment driver
"""

__version__ = "0.1.0"
