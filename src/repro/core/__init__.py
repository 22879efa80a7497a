"""The interactive distributed proof model, execution engine and
amplification."""

from .amplify import (AndAmplifiedProtocol, binomial_cdf, binomial_pmf,
                      binomial_tail, choose_threshold,
                      clopper_pearson_lower, clopper_pearson_upper,
                      repetitions_for_gap, threshold_guarantees)
from .context import InstanceContext
from .model import (Instance, LocalView, NodeMessage, PATTERN_DAM,
                    PATTERN_DAMAM, PATTERN_DMAM, PATTERN_DNP, Protocol,
                    ProtocolViolation, Prover, ROUND_ARTHUR, ROUND_MERLIN,
                    bits_for_identifier, bits_for_value)
from .provers import (RandomGarbageProver, ReplayProver, TamperingProver,
                      record_responses)
from .report import (describe_rounds, execution_to_jsonable,
                     render_execution)
from .runner import (AcceptanceEstimate, ExecutionResult, Transcript,
                     decide_transcript, run_protocol, run_trials)

__all__ = [name for name in dir() if not name.startswith("_")]
