"""Multi-distribution learning on finite instances.

A library and CLI harness for no-regret game dynamics between a
hypothesis-choosing learner and a distribution-choosing sampling
adversary, together with exact brute-force ground truth so that the
realized worst-case loss and sample budgets of every run can be audited.

Every public name is imported from the module that defines it, say
``from multidist.algos import run_mid``.
"""

__version__ = "0.1.0"
