//! A visual query-construction session: the GUI model behind the step
//! counts.
//!
//! §6.1's `step_P` is an *accounting* of formulation steps; this module
//! makes the accounting executable. A [`Session`] holds a query
//! construction canvas (the paper's QCC) and a pattern panel, and applies
//! [`Action`]s — drag a canned pattern, add a vertex, add an edge, relabel
//! a vertex — exactly like the interactions of §1's Example 1.1.
//! [`replay`] converts a [`Formulation`] into an action script and runs
//! it, proving that `formulate`'s claimed step count corresponds to a real
//! action sequence that reconstructs the query on the canvas.

use crate::steps::Formulation;
use catapult_graph::iso::are_isomorphic;
use catapult_graph::{Graph, GraphError, Label, VertexId};

/// One user interaction on the canvas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Drag panel pattern `pattern` onto the canvas (pattern-at-a-time
    /// mode); its vertices and edges materialize in one step.
    DragPattern {
        /// Index into the session's panel.
        pattern: usize,
    },
    /// Add a single labeled vertex (edge-at-a-time mode).
    AddVertex(Label),
    /// Draw an edge between two canvas vertices.
    AddEdge(VertexId, VertexId),
    /// Relabel a canvas vertex (the unlabeled-pattern workflow of Exp 3).
    Relabel(VertexId, Label),
}

/// Errors from applying an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Panel index out of range.
    UnknownPattern(usize),
    /// Canvas vertex id out of range.
    UnknownVertex(VertexId),
    /// The edge is invalid (self-loop / duplicate).
    BadEdge(GraphError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownPattern(i) => write!(f, "no panel pattern {i}"),
            SessionError::UnknownVertex(v) => write!(f, "no canvas vertex {v:?}"),
            SessionError::BadEdge(e) => write!(f, "invalid edge: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A live query-construction session.
#[derive(Clone, Debug)]
pub struct Session {
    panel: Vec<Graph>,
    canvas: Graph,
    steps: usize,
    log: Vec<Action>,
}

impl Session {
    /// Open a session over a pattern panel.
    pub fn new(panel: Vec<Graph>) -> Self {
        Session {
            panel,
            canvas: Graph::new(),
            steps: 0,
            log: Vec::new(),
        }
    }

    /// The canvas in its current state.
    pub fn canvas(&self) -> &Graph {
        &self.canvas
    }

    /// Steps taken so far (each action is one step, per §6.1).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The action log.
    pub fn log(&self) -> &[Action] {
        &self.log
    }

    /// Apply one action. On success returns the canvas vertices created by
    /// the action (empty for edges/relabels).
    pub fn apply(&mut self, action: Action) -> Result<Vec<VertexId>, SessionError> {
        let created = match &action {
            Action::DragPattern { pattern } => {
                let p = self
                    .panel
                    .get(*pattern)
                    .ok_or(SessionError::UnknownPattern(*pattern))?
                    .clone();
                let mut created = Vec::with_capacity(p.vertex_count());
                for v in p.vertices() {
                    created.push(self.canvas.add_vertex(p.label(v)));
                }
                for (_, e) in p.edges() {
                    self.canvas
                        .add_edge(created[e.u.index()], created[e.v.index()])
                        .map_err(SessionError::BadEdge)?;
                }
                created
            }
            Action::AddVertex(l) => vec![self.canvas.add_vertex(*l)],
            Action::AddEdge(a, b) => {
                for v in [a, b] {
                    if v.index() >= self.canvas.vertex_count() {
                        return Err(SessionError::UnknownVertex(*v));
                    }
                }
                self.canvas
                    .add_edge(*a, *b)
                    .map_err(SessionError::BadEdge)?;
                Vec::new()
            }
            Action::Relabel(v, l) => {
                if v.index() >= self.canvas.vertex_count() {
                    return Err(SessionError::UnknownVertex(*v));
                }
                // Rebuild with the new label (Graph is append-only by
                // design; sessions are small so this is fine).
                let mut labels: Vec<Label> = self.canvas.labels().to_vec();
                labels[v.index()] = *l;
                let edges: Vec<(u32, u32)> =
                    self.canvas.edges().map(|(_, e)| (e.u.0, e.v.0)).collect();
                self.canvas = Graph::from_parts(&labels, &edges);
                Vec::new()
            }
        };
        self.steps += 1;
        self.log.push(action);
        Ok(created)
    }

    /// Whether the canvas is isomorphic to `target` — the session built
    /// the query.
    pub fn completed(&self, target: &Graph) -> bool {
        // Canvas graphs are interactive-query sized (§1); the default
        // 10M-node cap cannot trip on them.
        are_isomorphic(&self.canvas, target) // xtask-allow: budget-threading
    }
}

/// Replay a [`Formulation`] of `query` as an executable action script.
///
/// Returns the finished session; the caller can check
/// `session.steps() == formulation.steps` and
/// `session.completed(query)` — which [`replay`]'s tests and the
/// integration suite do, closing the loop between the §6.1 accounting and
/// actual GUI behaviour.
pub fn replay(
    query: &Graph,
    panel: &[Graph],
    formulation: &Formulation,
) -> Result<Session, SessionError> {
    let mut session = Session::new(panel.to_vec());
    // canvas vertex per query vertex.
    let mut image: Vec<Option<VertexId>> = vec![None; query.vertex_count()];
    // 1. Drag each chosen occurrence; its embedding fixes the canvas image
    //    of the covered query vertices.
    for occ in &formulation.used {
        let created = session.apply(Action::DragPattern {
            pattern: occ.pattern,
        })?;
        // `occ.vertices` is sorted; the pattern's embedding maps pattern
        // vertex i → embedding[i]. We need the specific correspondence:
        // re-find it by matching the dragged pattern onto the query region.
        let p = &panel[occ.pattern];
        #[allow(clippy::expect_used)]
        // Occurrences originate from `embeddings`, so re-finding one cannot fail.
        let embedding = crate::steps::occurrence_embedding(query, p, occ)
            .expect("occurrence came from an embedding");
        for (pv, qv) in embedding.iter().enumerate() {
            image[qv.index()] = Some(created[pv]);
        }
    }
    // 2. Add uncovered vertices.
    for v in query.vertices() {
        if image[v.index()].is_none() {
            let created = session.apply(Action::AddVertex(query.label(v)))?;
            image[v.index()] = Some(created[0]);
        }
    }
    // 3. Add uncovered edges.
    let covered_edges: std::collections::HashSet<u32> = formulation
        .used
        .iter()
        .flat_map(|o| o.edges.iter().copied())
        .collect();
    for (eid, e) in query.edges() {
        if covered_edges.contains(&eid.0) {
            continue;
        }
        // Steps 1-2 placed every query vertex into `image`, so both lookups
        // succeed for any well-formed formulation.
        #[allow(clippy::expect_used)]
        let (a, b) = (
            image[e.u.index()].expect("all vertices placed"),
            image[e.v.index()].expect("all vertices placed"),
        );
        session.apply(Action::AddEdge(a, b))?;
    }
    Ok(session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steps::{formulate, DEFAULT_EMBEDDING_CAP};

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn cycle(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        Graph::from_parts(&labels, &edges)
    }

    fn path(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn manual_edge_at_a_time_session() {
        let mut s = Session::new(vec![]);
        let a = s.apply(Action::AddVertex(l(1))).unwrap()[0];
        let b = s.apply(Action::AddVertex(l(2))).unwrap()[0];
        s.apply(Action::AddEdge(a, b)).unwrap();
        assert_eq!(s.steps(), 3);
        let target = Graph::from_parts(&[l(1), l(2)], &[(0, 1)]);
        assert!(s.completed(&target));
    }

    #[test]
    fn drag_pattern_is_one_step() {
        let mut s = Session::new(vec![cycle(5)]);
        s.apply(Action::DragPattern { pattern: 0 }).unwrap();
        assert_eq!(s.steps(), 1);
        assert!(s.completed(&cycle(5)));
    }

    #[test]
    fn relabel_changes_label() {
        let mut s = Session::new(vec![]);
        let v = s.apply(Action::AddVertex(l(0))).unwrap()[0];
        s.apply(Action::Relabel(v, l(7))).unwrap();
        assert_eq!(s.canvas().label(v), l(7));
        assert_eq!(s.steps(), 2);
    }

    #[test]
    fn errors_do_not_advance_steps() {
        let mut s = Session::new(vec![]);
        assert!(s.apply(Action::DragPattern { pattern: 3 }).is_err());
        assert!(s.apply(Action::AddEdge(VertexId(0), VertexId(1))).is_err());
        assert_eq!(s.steps(), 0);
    }

    #[test]
    fn replay_reconstructs_query_with_claimed_steps() {
        // Two triangles joined by a bridge, formulated with a triangle
        // pattern: the §1 Example 1.1 shape.
        let mut q = Graph::new();
        for _ in 0..6 {
            q.add_vertex(l(0));
        }
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            q.add_edge(VertexId(a), VertexId(b)).unwrap();
        }
        let panel = vec![cycle(3)];
        let f = formulate(&q, &panel, DEFAULT_EMBEDDING_CAP);
        assert_eq!(f.steps, 3);
        let session = replay(&q, &panel, &f).unwrap();
        assert_eq!(session.steps(), f.steps);
        assert!(session.completed(&q));
    }

    #[test]
    fn replay_handles_partial_coverage() {
        // A 7-path with a 3-edge pattern: one drag + manual remainder.
        let q = path(8);
        let panel = vec![path(4)];
        let f = formulate(&q, &panel, DEFAULT_EMBEDDING_CAP);
        let session = replay(&q, &panel, &f).unwrap();
        assert_eq!(session.steps(), f.steps);
        assert!(session.completed(&q));
        assert!(session.steps() < crate::steps::step_total(&q));
    }

    #[test]
    fn replay_with_empty_panel_is_edge_at_a_time() {
        let q = cycle(4);
        let f = formulate(&q, &[], DEFAULT_EMBEDDING_CAP);
        let session = replay(&q, &[], &f).unwrap();
        assert_eq!(session.steps(), crate::steps::step_total(&q));
        assert!(session.completed(&q));
    }
}
