"""Primary-component decomposition of tower traffic (Section 5.3 of the paper).

The paper observes that, in the frequency-feature space, towers lie inside a
polygon whose vertices are the four *most representative* towers — one per
pure urban function — and that any tower's feature vector can therefore be
written as a convex combination of those four primary components.  This
package provides:

* selection of the most representative (density-filtered, maximally
  separated) tower of each cluster (:mod:`repro.decompose.representative`);
* an exact simplex-constrained least-squares solver for the convex
  combination coefficients of every tower in one batched call
  (:mod:`repro.decompose.simplex`, :mod:`repro.decompose.batch`), with
  per-tower views (:mod:`repro.decompose.convex`);
* polygon/hull diagnostics in the feature space
  (:mod:`repro.decompose.polygon`);
* time-domain mixture reconstruction showing the per-component traffic of a
  comprehensive tower (:mod:`repro.decompose.mixture`).
"""

from repro.decompose.batch import BatchDecomposition, decompose_features_batch
from repro.decompose.convex import ConvexDecomposition
from repro.decompose.mixture import TimeDomainMixture, mixture_time_series
from repro.decompose.polygon import hull_containment_fraction, polygon_vertices
from repro.decompose.representative import RepresentativeTowers, select_representative_towers
from repro.decompose.simplex import (
    project_to_simplex_batch,
    simplex_constrained_least_squares_batch,
)

__all__ = [
    "BatchDecomposition",
    "ConvexDecomposition",
    "RepresentativeTowers",
    "TimeDomainMixture",
    "decompose_features_batch",
    "hull_containment_fraction",
    "mixture_time_series",
    "polygon_vertices",
    "project_to_simplex_batch",
    "select_representative_towers",
    "simplex_constrained_least_squares_batch",
]
