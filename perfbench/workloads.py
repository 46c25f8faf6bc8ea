"""Workload definitions shared by the driver and its child processes."""

#: K of recall@K and of every served and offline top-K ranking.
TOP_K = 20

#: The serving request mix: this share of requests is ``POST /score``
#: with ``N_CANDIDATES`` distinct random items, the rest ``GET /recommend``.
SCORE_SHARE = 0.1
N_CANDIDATES = 50
#: Exponent of the Zipf law over users in the serving load.  An assumed
#: value, not one measured on real Last-FM request logs: it makes a few
#: users hot (the hottest gets ~23% of 120 users' requests) while most
#: users still appear in every load window.
ZIPF_S = 1.1
#: A load request with no complete reply after this long counts as failed.
REPLY_TIMEOUT_S = 30.0

#: A Last-FM-shaped catalogue: 59 attribute relations (60 with the
#: attribute→category hierarchy relation) × 108 values over 3,000 items,
#: i.e. 3,000 + 59·108 + 54 = 9,426 entities.
WIDEKG_PROFILE = dict(
    name="widekg",
    n_users=200,
    n_items=3000,
    n_topics=6,
    interactions_per_user=9.0,
    triples_per_item=4.0,
    n_relations=59,
    attribute_values_per_relation=108,
)

#: Train workloads: ``preset`` is the ``paper_config`` preset,
#: ``eval_users`` the validation users ``Trainer.evaluate`` ranks after
#: every epoch.
TRAIN_WORKLOADS = {
    "train-movie": dict(preset="movie", eval_users=80),
    "train-widekg": dict(preset="music", eval_users=16),
}

#: The raw files → prep → export → serve path.  Six export epochs rather
#: than three: ``epoch_s``/``eval_s`` of this workload are medians over the
#: exports' epoch spans, and music epochs last ~0.08 s each.
SERVE_HTTP = dict(profile="music", export_epochs=6, index_users=90)

WORKLOADS = tuple(TRAIN_WORKLOADS) + ("serve-http",)
