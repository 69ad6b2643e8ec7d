"""The ``churn`` scenario: write-heavy guests that fight the merger.

Models update-heavy services (caches, build farms) where a large slice
of each guest's memory is rewritten continuously: twice the default
fraction of pages are churn pages, and every churn page is rewritten on
every tick instead of a sampled fraction.  Merging such pages is wasted
work — the interesting numbers are CoW-break rates and how much of the
nominally-mergeable footprint the backend still manages to hold shared.
"""

from dataclasses import replace

from repro.scenarios.base import WorkloadModel
from repro.scenarios.registry import register_scenario


@register_scenario("churn")
class ChurnScenario(WorkloadModel):
    """Write-heavy guests: double churn share, full rewrite every tick."""

    summary = "write-heavy guests: 2x churn pages, rewritten every tick"

    #: Share of unmergeable-class pages that are churn pages (vs 0.25).
    churn_frac = 0.5

    def image_profile(self, app, pages_per_vm):
        profile = super().image_profile(app, pages_per_vm)
        return replace(profile, churn_frac=self.churn_frac)

    def churn_fraction(self):
        return 1.0
