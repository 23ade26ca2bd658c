//! Seeded input generation: document texts, query pools, query draws
//! and mutation streams. Everything here is a pure function of the seed
//! and uses its own random stream, so the inputs stay the same when the
//! program's own data generators change.

use std::collections::BTreeSet;

/// SplitMix64: small, fast, and fully specified here, so a seed means the
/// same inputs on every platform and in every version of the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one purpose, derived from the run seed.
    pub fn derive(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// `min` plus a geometric tail: keep adding one with probability
    /// `more`, never past `cap`.
    pub fn geometric(&mut self, min: usize, more: f64, cap: usize) -> usize {
        let mut n = min;
        while n < cap && self.chance(more) {
            n += 1;
        }
        n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

// Stream purposes: each kind of input draws from its own stream, so
// changing how much of one is generated never shifts another.
const DOCS: u64 = 1;
const QUERIES: u64 = 2;
const MUTATIONS: u64 = 3;
const QERROR: u64 = 4;
const DRAWS: u64 = 5;

const WORDS: &[&str] = &[
    "adaptive",
    "query",
    "xml",
    "index",
    "join",
    "tree",
    "stream",
    "cost",
    "model",
    "graph",
    "storage",
    "parallel",
    "data",
    "cache",
    "schema",
    "path",
    "twig",
    "histogram",
    "estimate",
    "optimizer",
    "semantic",
    "web",
    "mining",
    "search",
    "view",
    "update",
    "lattice",
    "system",
    "network",
    "object",
    "relational",
    "logic",
];
const NAMES: &[&str] = &[
    "Ada", "Ben", "Chen", "Dana", "Eli", "Fei", "Gita", "Hugo", "Ines", "Jun", "Kai", "Lena",
    "Mia", "Noor", "Omar", "Pia",
];
const SURNAMES: &[&str] = &[
    "Wu",
    "Patel",
    "Jagadish",
    "Olteanu",
    "Lakshmanan",
    "Srivastava",
    "Ng",
    "Kim",
    "Rossi",
    "Meyer",
    "Silva",
    "Tanaka",
    "Novak",
    "Haas",
    "Berg",
    "Costa",
];

/// Which collection a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// Flat bibliography records: every tag has the no-overlap property.
    Dblp,
    /// The paper's recursive `manager/department/employee` data:
    /// `manager` and `department` nest within themselves (overlap).
    Dept,
}

/// DBLP record kinds with their approximate DBLP-2001 mix.
pub const DBLP_KINDS: &[(&str, usize)] = &[
    ("article", 37),
    ("inproceedings", 50),
    ("book", 2),
    ("phdthesis", 4),
    ("proceedings", 7),
];
pub const DBLP_FIELDS: &[&str] = &["author", "title", "year", "url", "cdrom", "cite"];
pub const DEPT_TAGS: &[&str] = &["manager", "department", "employee", "name", "email"];

fn words(rng: &mut Rng, n: usize, out: &mut String) {
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.below(WORDS.len())]);
    }
}

fn element(out: &mut String, tag: &str, text: &str) {
    out.push('<');
    out.push_str(tag);
    out.push('>');
    out.push_str(text);
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

/// One DBLP-like document of `records` bibliography records.
pub fn dblp_doc(rng: &mut Rng, records: usize) -> String {
    let mut s = String::with_capacity(records * 240);
    let total: usize = DBLP_KINDS.iter().map(|(_, w)| w).sum();
    s.push_str("<dblp>");
    let mut text = String::new();
    for _ in 0..records {
        let mut roll = rng.below(total);
        let kind = DBLP_KINDS
            .iter()
            .find(|(_, w)| {
                let hit = roll < *w;
                roll = roll.saturating_sub(*w);
                hit
            })
            .map_or("article", |(k, _)| k);
        s.push('<');
        s.push_str(kind);
        s.push('>');
        for _ in 0..rng.geometric(1, 0.5, 5) {
            let name = format!(
                "{} {}",
                NAMES[rng.below(NAMES.len())],
                SURNAMES[rng.below(SURNAMES.len())]
            );
            element(&mut s, "author", &name);
        }
        text.clear();
        let n = rng.range(2, 7);
        words(rng, n, &mut text);
        element(&mut s, "title", &text);
        let decade = match rng.below(100) {
            0..=61 => 1980,
            62..=80 => 1990,
            81..=94 => 1970,
            _ => 1960,
        };
        element(&mut s, "year", &(decade + rng.below(10)).to_string());
        if rng.chance(0.98) {
            element(
                &mut s,
                "url",
                &format!("db/{kind}/{}.html", rng.below(100_000)),
            );
        }
        if rng.chance(0.086) {
            element(
                &mut s,
                "cdrom",
                &format!("CDROM/{kind}{:05}", rng.below(100_000)),
            );
        }
        if rng.chance(0.4) {
            for _ in 0..rng.geometric(1, 0.75, 16) {
                let venue = if rng.chance(0.64) { "conf" } else { "journals" };
                element(&mut s, "cite", &format!("{venue}/x/{}", rng.below(100_000)));
            }
        }
        s.push_str("</");
        s.push_str(kind);
        s.push('>');
    }
    s.push_str("</dblp>");
    s
}

/// Emits `manager/department/employee` subtrees following the paper's
/// DTD (Section 5.2), counting nodes (elements and text) into `nodes`.
struct DeptWriter<'a> {
    rng: &'a mut Rng,
    out: String,
    nodes: usize,
}

const DEPT_MAX_DEPTH: usize = 8;

impl DeptWriter<'_> {
    fn leaf(&mut self, tag: &str) {
        let text = match tag {
            "name" => format!(
                "{} {}",
                NAMES[self.rng.below(NAMES.len())],
                SURNAMES[self.rng.below(SURNAMES.len())]
            ),
            _ => format!("u{}@dept.example", self.rng.below(100_000)),
        };
        element(&mut self.out, tag, &text);
        self.nodes += 2;
    }

    /// `employee (name+, email?)`
    fn employee(&mut self) {
        self.out.push_str("<employee>");
        self.nodes += 1;
        for _ in 0..self.rng.geometric(1, 0.3, 4) {
            self.leaf("name");
        }
        if self.rng.chance(0.5) {
            self.leaf("email");
        }
        self.out.push_str("</employee>");
    }

    /// `department (name, email?, employee+, department*)`
    fn department(&mut self, depth: usize) {
        self.out.push_str("<department>");
        self.nodes += 1;
        self.leaf("name");
        if self.rng.chance(0.5) {
            self.leaf("email");
        }
        for _ in 0..self.rng.geometric(1, 0.55, 6) {
            self.employee();
        }
        if depth < DEPT_MAX_DEPTH {
            for _ in 0..self.rng.geometric(0, 0.45, 4) {
                self.department(depth + 1);
            }
        }
        self.out.push_str("</department>");
    }

    /// `manager (name, (manager | department | employee)+)`
    fn manager(&mut self, depth: usize) {
        self.out.push_str("<manager>");
        self.nodes += 1;
        self.leaf("name");
        for _ in 0..self.rng.geometric(1, 0.55, 6) {
            self.manager_child(depth);
        }
        self.out.push_str("</manager>");
    }

    fn manager_child(&mut self, depth: usize) {
        let roll = self.rng.below(10);
        if depth < DEPT_MAX_DEPTH && roll < 3 {
            self.manager(depth + 1);
        } else if depth < DEPT_MAX_DEPTH && roll < 7 {
            self.department(depth + 1);
        } else {
            self.employee();
        }
    }
}

/// One `dept` document of roughly `target_nodes` nodes: a root manager
/// whose children are drawn from the DTD until the target is reached.
pub fn dept_doc(rng: &mut Rng, target_nodes: usize) -> String {
    let mut w = DeptWriter {
        rng,
        out: String::with_capacity(target_nodes * 20),
        nodes: 1,
    };
    w.out.push_str("<manager>");
    w.leaf("name");
    while w.nodes < target_nodes {
        w.manager_child(1);
    }
    w.out.push_str("</manager>");
    w.out
}

/// The initial collection of a workload, in load order.
pub fn initial_docs(corpus: Corpus, seed: u64, count: usize) -> Vec<(String, String)> {
    let mut rng = Rng::derive(seed, DOCS);
    (0..count)
        .map(|i| {
            let xml = match corpus {
                Corpus::Dblp => dblp_doc(&mut rng, DBLP_INITIAL_RECORDS),
                Corpus::Dept => dept_doc(&mut rng, DEPT_INITIAL_NODES),
            };
            (format!("d{i:04}"), xml)
        })
        .collect()
}

/// Records per initial DBLP document.
pub const DBLP_INITIAL_RECORDS: usize = 300;
/// Node target per initial `dept` document.
pub const DEPT_INITIAL_NODES: usize = 22_500;

// ---------------------------------------------------------------------
// Query pools
// ---------------------------------------------------------------------

/// A workload's distinct queries, hottest first for skewed draws.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPool {
    pub queries: Vec<String>,
    /// Whether each query is a two-node `//a//b` pair.
    pub is_pair: Vec<bool>,
}

/// About 200 DBLP queries: `//a//b` pairs and `//a[.//b]//c` twigs.
/// Ranks are shuffled within each shape, and the pairs are spread
/// evenly over the ranks, so every seed puts the same share of skewed
/// draws on each shape.
pub fn dblp_pool(seed: u64) -> QueryPool {
    let mut rng = Rng::derive(seed, QUERIES);
    let kinds: Vec<&str> = DBLP_KINDS.iter().map(|(k, _)| *k).collect();
    let mut pairs = Vec::new();
    for t in kinds.iter().chain(DBLP_FIELDS) {
        pairs.push(format!("//dblp//{t}"));
    }
    for k in &kinds {
        for f in DBLP_FIELDS {
            pairs.push(format!("//{k}//{f}"));
        }
    }
    let mut twigs = Vec::new();
    for k in &kinds {
        for f1 in DBLP_FIELDS {
            for f2 in DBLP_FIELDS {
                if f1 != f2 {
                    twigs.push(format!("//{k}[.//{f1}]//{f2}"));
                }
            }
        }
        for f in DBLP_FIELDS {
            twigs.push(format!("//dblp[.//{k}]//{f}"));
        }
    }
    rng.shuffle(&mut pairs);
    rng.shuffle(&mut twigs);
    let total = pairs.len() + twigs.len();
    let pair_ranks: BTreeSet<usize> = (0..pairs.len()).map(|i| i * total / pairs.len()).collect();
    let (mut p, mut t) = (pairs.into_iter(), twigs.into_iter());
    let mut queries = Vec::with_capacity(total);
    let mut is_pair = Vec::with_capacity(total);
    for rank in 0..total {
        let pair = pair_ranks.contains(&rank);
        let q = if pair { p.next() } else { t.next() };
        queries.push(q.expect("pair ranks are exactly as many as pairs"));
        is_pair.push(pair);
    }
    QueryPool { queries, is_pair }
}

/// Distinct `dept` twigs in the pool: three times the program's
/// prepared-query cache (4096 strings), so per-string caches of that
/// size mostly miss under uniform draws. The DTD allows about 13,700
/// distinct 4–5-node twigs in all.
pub const DEPT_POOL: usize = 12_288;
/// Draws before the pool generator settles for fewer twigs.
const DEPT_POOL_ATTEMPTS: usize = 4_000_000;

/// One node of a generated twig.
struct Twig {
    tag: &'static str,
    /// `/` (child) when true, `//` (descendant) otherwise.
    child_axis: bool,
    kids: Vec<Twig>,
}

/// Tags the paper's DTD allows below `parent` on the given axis.
fn dept_allowed(parent: &str, child_axis: bool) -> &'static [&'static str] {
    match (parent, child_axis) {
        ("manager", true) => &["name", "manager", "department", "employee"],
        ("manager", false) => DEPT_TAGS,
        ("department", _) => &["name", "email", "employee", "department"],
        _ => &["name", "email"],
    }
}

impl Twig {
    fn len(&self) -> usize {
        1 + self.kids.iter().map(Twig::len).sum::<usize>()
    }

    /// The `i`-th node in preorder that may have children.
    fn inner_mut(&mut self, i: &mut usize) -> Option<&mut Twig> {
        if matches!(self.tag, "manager" | "department" | "employee") {
            if *i == 0 {
                return Some(self);
            }
            *i -= 1;
        }
        for k in &mut self.kids {
            if let Some(t) = k.inner_mut(i) {
                return Some(t);
            }
        }
        None
    }

    fn inner_count(&self) -> usize {
        usize::from(matches!(self.tag, "manager" | "department" | "employee"))
            + self.kids.iter().map(Twig::inner_count).sum::<usize>()
    }

    /// Renders with children in sorted order, the last one as the path
    /// continuation: isomorphic twigs render to the same string.
    fn render(&self) -> String {
        let mut kids: Vec<String> = self
            .kids
            .iter()
            .map(|k| format!("{}{}", if k.child_axis { "/" } else { "//" }, k.render()))
            .collect();
        kids.sort();
        let mut out = self.tag.to_owned();
        if let Some(last) = kids.pop() {
            for k in kids {
                out.push_str("[.");
                out.push_str(&k);
                out.push(']');
            }
            out.push_str(&last);
        }
        out
    }
}

/// [`DEPT_POOL`] distinct 4–5-node `dept` twigs mixing `/` and `//`,
/// grown along the DTD so that most have matches.
pub fn dept_pool(seed: u64) -> QueryPool {
    let mut rng = Rng::derive(seed, QUERIES);
    let mut seen = BTreeSet::new();
    let mut queries = Vec::with_capacity(DEPT_POOL);
    for _ in 0..DEPT_POOL_ATTEMPTS {
        if queries.len() == DEPT_POOL {
            break;
        }
        let root = match rng.below(10) {
            0..=4 => "manager",
            5..=8 => "department",
            _ => "employee",
        };
        let mut twig = Twig {
            tag: root,
            child_axis: false,
            kids: Vec::new(),
        };
        let size = rng.range(4, 5);
        while twig.len() < size {
            let mut pick = rng.below(twig.inner_count());
            let parent = twig.inner_mut(&mut pick).expect("pick < inner_count");
            let child_axis = rng.chance(0.5);
            let allowed = dept_allowed(parent.tag, child_axis);
            parent.kids.push(Twig {
                tag: allowed[rng.below(allowed.len())],
                child_axis,
                kids: Vec::new(),
            });
        }
        let q = format!("//{}", twig.render());
        if seen.insert(q.clone()) {
            queries.push(q);
        }
    }
    let is_pair = vec![false; queries.len()];
    QueryPool { queries, is_pair }
}

/// How the reader client picks its next query.
#[derive(Debug, Clone)]
pub enum Draw {
    /// Zipf over ranks (rank 0 hottest): cumulative weights.
    Zipf(Vec<f64>),
    Uniform(usize),
}

impl Draw {
    pub fn zipf(n: usize, s: f64) -> Draw {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        Draw::Zipf(cdf)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        match self {
            Draw::Uniform(n) => rng.below(*n),
            Draw::Zipf(cdf) => {
                let x = rng.unit() * cdf[cdf.len() - 1];
                cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)
            }
        }
    }
}

/// The reader's draw stream for one run.
pub fn draw_rng(seed: u64) -> Rng {
    Rng::derive(seed, DRAWS)
}

/// Seed of the fixed accuracy sample: see [`accuracy_candidates`].
pub const ACCURACY_SEED: u64 = 0;

/// The q-error candidates of a corpus, in the order the sample is taken
/// (the first ones with a non-zero true count are used). The sample is
/// fixed: it comes from [`ACCURACY_SEED`], whatever the run's seed, so
/// runs on different seeds score the same queries. Per-query errors on
/// the recursive data spread over eight orders of magnitude, and a
/// sample redrawn per seed would move the aggregate more than any
/// bound could allow.
pub fn accuracy_candidates(corpus: Corpus) -> Vec<String> {
    let pool = match corpus {
        Corpus::Dblp => dblp_pool(ACCURACY_SEED),
        Corpus::Dept => dept_pool(ACCURACY_SEED),
    };
    let mut order = pool.queries;
    Rng::derive(ACCURACY_SEED, QERROR).shuffle(&mut order);
    order
}

// ---------------------------------------------------------------------
// Mutation streams
// ---------------------------------------------------------------------

/// One writer operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Append {
        name: String,
        xml: String,
    },
    Remove {
        name: String,
    },
    /// `save_to_store` of the whole catalog.
    Checkpoint,
}

/// Mutations between two checkpoints.
pub const CHECKPOINT_EVERY: usize = 25;

/// An endless seeded stream of appends and removals of uniformly chosen
/// live documents, with a checkpoint after every [`CHECKPOINT_EVERY`]
/// mutations. Appends are drawn four times as often as removals while
/// the collection is below its initial size and a quarter as often
/// above it, so the live count stays near that size and the cost of a
/// mutation does not drift with the stream's length.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    corpus: Corpus,
    live: Vec<String>,
    target: usize,
    next_id: usize,
    since_checkpoint: usize,
}

impl OpStream {
    pub fn new(seed: u64, corpus: Corpus, initial: &[String]) -> OpStream {
        OpStream {
            rng: Rng::derive(seed, MUTATIONS),
            corpus,
            live: initial.to_vec(),
            target: initial.len(),
            next_id: 0,
            since_checkpoint: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.since_checkpoint == CHECKPOINT_EVERY {
            self.since_checkpoint = 0;
            return Some(Op::Checkpoint);
        }
        self.since_checkpoint += 1;
        let p_append = match self.live.len().cmp(&self.target) {
            std::cmp::Ordering::Less => 0.8,
            std::cmp::Ordering::Equal => 0.5,
            std::cmp::Ordering::Greater => 0.2,
        };
        if self.live.len() <= 1 || self.rng.chance(p_append) {
            let xml = match self.corpus {
                Corpus::Dblp => {
                    let records = self.rng.range(50, 350);
                    dblp_doc(&mut self.rng, records)
                }
                Corpus::Dept => {
                    // Half to one and a half times an initial document.
                    let nodes = self
                        .rng
                        .range(DEPT_INITIAL_NODES / 2, DEPT_INITIAL_NODES * 3 / 2);
                    dept_doc(&mut self.rng, nodes)
                }
            };
            let name = format!("m{:05}", self.next_id);
            self.next_id += 1;
            self.live.push(name.clone());
            Some(Op::Append { name, xml })
        } else {
            let victim = self.rng.below(self.live.len());
            Some(Op::Remove {
                name: self.live.remove(victim),
            })
        }
    }
}
