"""Mobile search-log substrate.

The paper's PocketSearch design and evaluation are driven by 200 million
real queries from m.bing.com.  Those logs are proprietary, so this
subpackage provides a synthetic generator calibrated to every
distributional property the paper reports (see DESIGN.md section 5):

* community concentration: a few thousand popular queries/results carry
  ~60% of volume, navigational queries far more concentrated (Figure 4);
* per-user repeatability: half the users repeat at least 70% of their
  queries within a month, mean repeat rate ~56.5% (Figure 5);
* user classes by monthly volume (Table 6);
* misspelling/shortcut aliases that make multiple queries reach one
  result (only ~60% of cached results are unique);
* featurephone vs smartphone and mobile vs desktop contrasts.
"""

from repro.logs.schema import QueryEvent, Triplet, UserClass, classify_user
from repro.logs.vocabulary import Vocabulary, VocabularyConfig
from repro.logs.popularity import CommunityModel
from repro.logs.users import UserBehavior, UserPopulation, PopulationConfig
from repro.logs.generator import GeneratorConfig, SearchLog, generate_logs
from repro.logs import analysis

__all__ = [
    "CommunityModel",
    "GeneratorConfig",
    "PopulationConfig",
    "QueryEvent",
    "SearchLog",
    "Triplet",
    "UserBehavior",
    "UserClass",
    "UserPopulation",
    "Vocabulary",
    "VocabularyConfig",
    "analysis",
    "classify_user",
    "generate_logs",
]
