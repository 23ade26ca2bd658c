//! A seed fixes every input: document texts, query pools, draws and
//! operation sequences. Different seeds give different inputs.

use xmlest_e2ebench::gen::{self, Corpus, Draw, Op, OpStream};

fn ops(seed: u64, corpus: Corpus, n: usize) -> Vec<Op> {
    let names: Vec<String> = (0..4).map(|i| format!("d{i:04}")).collect();
    OpStream::new(seed, corpus, &names).take(n).collect()
}

#[test]
fn documents_repeat_per_seed() {
    for corpus in [Corpus::Dblp, Corpus::Dept] {
        let a = gen::initial_docs(corpus, 7, 2);
        assert_eq!(a, gen::initial_docs(corpus, 7, 2));
        assert_ne!(a, gen::initial_docs(corpus, 8, 2));
    }
}

#[test]
fn query_pools_repeat_per_seed() {
    assert_eq!(gen::dblp_pool(7), gen::dblp_pool(7));
    assert_ne!(gen::dblp_pool(7).queries, gen::dblp_pool(8).queries);
    let dept = gen::dept_pool(7);
    assert_eq!(dept, gen::dept_pool(7));
    assert_ne!(dept.queries, gen::dept_pool(8).queries);
}

#[test]
fn draws_repeat_per_seed() {
    let draw = Draw::zipf(221, 1.0);
    let take = |seed| {
        let mut rng = gen::draw_rng(seed);
        (0..1000).map(|_| draw.sample(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(take(7), take(7));
    assert_ne!(take(7), take(8));
}

#[test]
fn operation_sequences_repeat_per_seed() {
    for corpus in [Corpus::Dblp, Corpus::Dept] {
        let a = ops(7, corpus, 60);
        assert_eq!(a, ops(7, corpus, 60));
        assert_ne!(a, ops(8, corpus, 60));
        // A checkpoint closes every run of mutations.
        let every = gen::CHECKPOINT_EVERY + 1;
        for (i, op) in a.iter().enumerate() {
            assert_eq!(*op == Op::Checkpoint, i % every == every - 1, "op {i}");
        }
    }
}

#[test]
fn accuracy_sample_is_fixed() {
    assert_eq!(
        gen::accuracy_candidates(Corpus::Dept),
        gen::accuracy_candidates(Corpus::Dept)
    );
}

#[test]
fn pools_have_the_promised_shape() {
    let dblp = gen::dblp_pool(7);
    assert!((190..=230).contains(&dblp.queries.len()));
    let pairs = dblp.is_pair.iter().filter(|&&p| p).count();
    assert!(pairs > 0 && pairs < dblp.queries.len());
    // The prepared-query cache holds 4096 strings; the cold pool must
    // be well past twice that.
    let dept = gen::dept_pool(7);
    assert!(dept.queries.len() > 8192);
    let distinct: std::collections::BTreeSet<_> = dept.queries.iter().collect();
    assert_eq!(distinct.len(), dept.queries.len());
    for q in &dept.queries {
        let nodes = q
            .split(|c: char| !c.is_ascii_alphabetic())
            .filter(|t| !t.is_empty())
            .count();
        assert!((4..=5).contains(&nodes), "{q}");
    }
    // Both axes appear below the root.
    assert!(dept
        .queries
        .iter()
        .any(|q| q.replace("//", "").contains('/')));
    assert!(dept.queries.iter().any(|q| q[2..].contains("//")));
}
