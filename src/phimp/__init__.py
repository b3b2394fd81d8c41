"""phimp: penalized maximum-likelihood selection of finite-state feature maps
for long-range sequence prediction."""

from .active import (Environment, Policy, Rollout, active_select, embed_reward_map,
                     environment_from_json, environment_to_json, event_index,
                     policy_induced_chain, read_environment, rollout,
                     write_environment)
from .errors import InputError, ResourceError
from .estimation import (CostBreakdown, EmpiricalHmm, PenaltyScheme, cost,
                         counts_nll, estimate, estimate_paired, icost,
                         log_likelihood, ml_cost, ocost, state_determines_pair)
from .fmaps import (ClosureReport, FeatureMap, MemoryBoundReport, SuffixSet,
                    SuffixSetReport, compile_suffix_map,
                    enumerate_closed_suffix_maps, is_fsm_closed, load_fsm_map,
                    maps_from_json, maps_to_json, memory_bound,
                    read_maps, trivial_map, validate_suffix_set, write_maps)
from .selection import (PruningLogEntry, SelectionResult, SelectionTrajectory,
                        consistency_run, countable_search, score_map, select,
                        with_baseline)
from .sequences import (Alphabet, ErgodicityReport, FrequencyReport,
                        PairedSequence, SymbolSequence, default_grid,
                        ergodicity_diagnostic, frequency_trajectory,
                        read_sequence, substring_frequency, write_sequence)
from .sources import (CrossEntropyEstimate, FsmxSource, Hmm, brute_force_loglik,
                      cross_entropy_exact_fsmx, cross_entropy_exact_markov,
                      cross_entropy_mc, forward_loglik, forward_loglik_steps,
                      hmm_from_map_model, induced_hmm, is_ergodic_chain,
                      limiting_parameters, model_from_json, model_to_json, read_model,
                      rng_stream, sample_fsmx, sample_hmm, stationary, write_model)

__version__ = "0.1.0"
