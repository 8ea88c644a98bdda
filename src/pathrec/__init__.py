"""Path reasoning recommendations over a product knowledge graph.

Translational embeddings score graph triplets, a policy gradient agent
walks user-to-item paths, and new users or items join a trained model
through relation averaged embeddings, without retraining. Every walk that
ends at a recommended item doubles as its explanation.
"""

from .coldstart import (ColdDeclaration, ColdProfile, ColdStrategy,
                        augment_graph, integrate_cold_entities, recommend_cold)
from .datasets import (DatasetSplit, SplitConfig, SyntheticSpec,
                       generate_synthetic, load_dataset, split_dataset,
                       synthetic_schema)
from .embeddings import (EmbedTrainConfig, EmbeddingTable, conditional_prob,
                         load_table, rng_for, save_table, score_triplet,
                         train_embeddings)
from .graph import (FORWARD, INVERSE, DerivationRule, KGSchema, KnowledgeGraph,
                    RelationSpec)
from .inference import (Recommendation, RecommendationList, beam_search, explain,
                        path_record, rank_recommendations)
from .mdp import PathState, RewardSpec, path_signature, signature_label
from .metrics import cold_item_coverage, hit_at_k, ndcg_at_k, pattern_report
from .pipeline import RunConfig, run_pipeline, run_seeds, sweep
from .policy import AgentConfig, PolicyModel, train_agent

__version__ = "0.1.0"

__all__ = [
    "AgentConfig", "ColdDeclaration", "ColdProfile", "ColdStrategy",
    "DatasetSplit", "DerivationRule", "EmbedTrainConfig", "EmbeddingTable",
    "FORWARD", "INVERSE", "KGSchema", "KnowledgeGraph",
    "PathState", "PolicyModel", "Recommendation", "RecommendationList",
    "RelationSpec", "RewardSpec", "RunConfig", "SplitConfig", "SyntheticSpec",
    "augment_graph", "beam_search", "cold_item_coverage", "conditional_prob",
    "explain", "generate_synthetic", "hit_at_k", "integrate_cold_entities",
    "load_dataset", "load_table", "ndcg_at_k", "path_record", "path_signature",
    "pattern_report", "rank_recommendations", "recommend_cold", "rng_for",
    "run_pipeline", "run_seeds", "save_table", "score_triplet",
    "signature_label", "split_dataset", "sweep", "synthetic_schema",
    "train_agent", "train_embeddings",
]
