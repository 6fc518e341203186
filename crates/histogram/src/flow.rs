//! A small Dinic max-flow, used to compute the *maximum* matching between
//! two grid histograms of dimension 2 or more (see the crate docs for why
//! greedy cancellation is not sound for a lower bound, and why 1-D
//! histograms need no flow).

/// Directed edge in the residual graph.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    cap: u64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// A max-flow network on `n` nodes (Dinic's algorithm).
#[derive(Debug)]
pub(crate) struct MaxFlow {
    graph: Vec<Vec<Edge>>,
}

impl MaxFlow {
    pub(crate) fn new(n: usize) -> Self {
        MaxFlow {
            graph: vec![Vec::new(); n],
        }
    }

    /// Adds a directed edge `from -> to` with the given capacity.
    pub(crate) fn add_edge(&mut self, from: usize, to: usize, cap: u64) {
        let rev_from = self.graph[to].len();
        let rev_to = self.graph[from].len();
        self.graph[from].push(Edge {
            to,
            cap,
            rev: rev_from,
        });
        self.graph[to].push(Edge {
            to: from,
            cap: 0,
            rev: rev_to,
        });
    }

    /// Maximum flow from `source` to `sink`.
    pub(crate) fn max_flow(&mut self, source: usize, sink: usize) -> u64 {
        let mut flow = 0u64;
        loop {
            let level = self.bfs_levels(source);
            if level[sink].is_none() {
                return flow;
            }
            let mut iter = vec![0usize; self.graph.len()];
            loop {
                let pushed = self.dfs(source, sink, u64::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
    }

    fn bfs_levels(&self, source: usize) -> Vec<Option<u32>> {
        let mut level = vec![None; self.graph.len()];
        level[source] = Some(0);
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let lu = level[u].expect("queued nodes have levels");
            for e in &self.graph[u] {
                if e.cap > 0 && level[e.to].is_none() {
                    level[e.to] = Some(lu + 1);
                    queue.push_back(e.to);
                }
            }
        }
        level
    }

    fn dfs(
        &mut self,
        u: usize,
        sink: usize,
        limit: u64,
        level: &[Option<u32>],
        iter: &mut [usize],
    ) -> u64 {
        if u == sink {
            return limit;
        }
        while iter[u] < self.graph[u].len() {
            let Edge { to, cap, rev } = self.graph[u][iter[u]];
            let admissible = cap > 0
                && match (level[u], level[to]) {
                    (Some(lu), Some(lt)) => lt == lu + 1,
                    _ => false,
                };
            if admissible {
                let pushed = self.dfs(to, sink, limit.min(cap), level, iter);
                if pushed > 0 {
                    self.graph[u][iter[u]].cap -= pushed;
                    self.graph[to][rev].cap += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_single_edge() {
        let mut f = MaxFlow::new(2);
        f.add_edge(0, 1, 7);
        assert_eq!(f.max_flow(0, 1), 7);
    }

    #[test]
    fn bottleneck_path() {
        // 0 -> 1 -> 2 with caps 5 and 3.
        let mut f = MaxFlow::new(3);
        f.add_edge(0, 1, 5);
        f.add_edge(1, 2, 3);
        assert_eq!(f.max_flow(0, 2), 3);
    }

    #[test]
    fn classic_diamond() {
        //      1
        //    /   \
        //  0       3, plus cross edge 1->2.
        //    \   /
        //      2
        let mut f = MaxFlow::new(4);
        f.add_edge(0, 1, 10);
        f.add_edge(0, 2, 10);
        f.add_edge(1, 3, 10);
        f.add_edge(2, 3, 10);
        f.add_edge(1, 2, 1);
        assert_eq!(f.max_flow(0, 3), 20);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut f = MaxFlow::new(4);
        f.add_edge(0, 1, 5);
        f.add_edge(2, 3, 5);
        assert_eq!(f.max_flow(0, 3), 0);
    }

    #[test]
    fn bipartite_matching_shape() {
        // The exact shape used for histogram cancellation: source -> pos
        // nodes -> neg nodes -> sink. Two positive masses (2, 1), two
        // negative (1, 2), adjacency pos0-{neg0,neg1}, pos1-{neg1}.
        let (s, p0, p1, n0, n1, t) = (0, 1, 2, 3, 4, 5);
        let mut f = MaxFlow::new(6);
        f.add_edge(s, p0, 2);
        f.add_edge(s, p1, 1);
        f.add_edge(p0, n0, u64::MAX);
        f.add_edge(p0, n1, u64::MAX);
        f.add_edge(p1, n1, u64::MAX);
        f.add_edge(n0, t, 1);
        f.add_edge(n1, t, 2);
        assert_eq!(f.max_flow(s, t), 3);
    }
}
