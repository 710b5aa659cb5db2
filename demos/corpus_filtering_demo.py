"""Filter a raw question dump down to clean, information-seeking questions.

Run: python3 demos/corpus_filtering_demo.py
"""

from discotrace import RawPost, filter_posts, sample_questions
from discotrace.corpus import RawComment, filter_comments


def post(post_id, title, score=10, profanity=0.0, n_comments=6):
    return RawPost(
        post_id=post_id, title=title, score=score, created_at="2024-01-01",
        community="AskHistorians", profanity_prob=profanity,
        comments=[RawComment(comment_id=f"{post_id}-c{i}", text="...", score=3)
                  for i in range(n_comments)],
    )


dump = [
    post("p1", "Why did the Roman Empire split into two halves?"),
    post("p2", "Why is that?"),                                    # too short
    post("p3", "Rome fell. Why did Byzantium survive?"),           # two statements
    post("p4", "Why do I sneeze when looking at the sun?"),        # personal
    post("p5", "How did Roman aqueducts deliver water uphill?", score=3),  # low score
    post("p6", "What caused the Bronze Age collapse?"),
    post("p7", "Is this normal for a medieval manuscript?"),       # validation-seeking
    post("p8", "When did humans first cross into the Americas?"),
]

kept, tally = filter_posts(dump)
print("kept:", [p.post_id for p in kept])
print("rejections by rule:")
for rule, count in sorted(tally.items()):
    if count:
        print(f"  {rule}: {count}")

# Each surviving post also needs enough scored top-level answers.
with_answers = [p for p in kept if filter_comments(p) is not None]
print("with enough answers:", [p.post_id for p in with_answers])

picked = sample_questions(with_answers, 2, seed=42)
print("sampled (seed 42):", [p.post_id for p in picked])
