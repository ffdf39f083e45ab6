"""Parameter-free affinity-threshold clustering.

The pipeline normalizes columns, derives a Gaussian affinity threshold from
the affinity histogram's steepest jump, grows clusters around incrementally
updated centroids, sheds singleton outliers, estimates the natural cluster
count from the size distribution, and merges greedily under a cost check.
No user-supplied parameters beyond the histogram bin count (default 10).
Import each stage from its submodule; the package root holds only __version__.
"""

__version__ = "0.1.0"
