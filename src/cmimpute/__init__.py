"""Cluster-center mapping for mixed-type tabular records.

Complete records are clustered, each record collapses to the sum of
its distances to every cluster center (its mapping value), and a
record with missing cells borrows those cells from the complete record
whose mapping value sits nearest.  The same machinery labels new
records.  See the README for the two nearest-donor modes and their
very different behavior.
"""

from . import classify, dataset, errors, evaluate, impute, kmeans, mapping
