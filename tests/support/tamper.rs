//! Runs encoded with an edge list that disagrees with the adjacency
//! written beside it: input no `Run` could produce. Shared by the
//! decode-validation tests of the facade, the store and the server;
//! each uses a subset.
#![allow(dead_code)]

use rpq_labeling::{NodeId, Run, RunEdge};
use serde::{Serialize, Value};

/// An edge from the exit's producer back to the entry's consumer: on a
/// derived run it closes a cycle without giving the entry a producer or
/// the exit a consumer.
pub fn back_edge(run: &Run) -> RunEdge {
    let first = run.edges().iter().find(|e| e.src == run.entry()).unwrap();
    let last = run.edges().iter().find(|e| e.dst == run.exit()).unwrap();
    RunEdge {
        src: last.src,
        dst: first.dst,
        tag: first.tag,
    }
}

/// An edge from the entry to node 999, outside any small run.
pub fn outside_edge(run: &Run) -> RunEdge {
    RunEdge {
        src: run.entry(),
        dst: NodeId(999),
        tag: run.edges()[0].tag,
    }
}

/// A data-model tree that serializes as itself.
pub struct Raw(pub Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// `message` with `extra` appended to the edge list of every run it
/// carries, and to nothing else: the adjacency and entry/exit written
/// beside each edge list still describe the original run.
pub fn with_extra_edge(message: &impl Serialize, extra: RunEdge) -> Raw {
    let mut value = message.to_value();
    append_edge(&mut value, &extra.to_value());
    Raw(value)
}

fn append_edge(value: &mut Value, edge: &Value) {
    match value {
        Value::Map(fields) => {
            for (name, field) in fields {
                match field {
                    Value::Seq(edges) if name == "edges" => edges.push(edge.clone()),
                    _ => append_edge(field, edge),
                }
            }
        }
        Value::Seq(items) => items.iter_mut().for_each(|item| append_edge(item, edge)),
        _ => {}
    }
}
