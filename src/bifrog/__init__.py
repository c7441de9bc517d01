"""Critical-probability bounds and simulation for the frog model with
death on biregular trees."""

from .bounds import (BoundsReport, DiskSeries, NoRootError, TABLE_REFERENCE,
                     TABLE_ROWS, bounds_report, disk_mean_offspring, f_value,
                     lb_alves, lb_biregular, spectral_radius, table1,
                     ub_closed, ub_root, ub_root_n)
from .hitting import (HittingPair, McEstimate, edge_open_prob, hitting_pair,
                      mc_hit_neighbor, system_residuals)
from .laws import (Bernoulli, Constant, Geometric, InitLaw, Poisson,
                   describe_law, parse_law)
from .pathprob import (PathOpenQuery, PathOpenTables,
                       bernoulli_path_open, mc_path_open, path_open_prob)
from .sim import (CoupledThresholds, GwOutcome, RangeDiskReport, SimConfig,
                  SimOutcome, SimResourceError, SurvivalEstimate,
                  coupled_thresholds, estimate_survival, gw_progeny_masses,
                  mc_range_vs_disk, run_frog, run_multitype_gw, sweep,
                  wilson_interval)
from .tree import TreeParams

__version__ = "0.1.0"
