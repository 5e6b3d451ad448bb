//! Fixture: a `#[cfg(test)]` struct field right before the struct's
//! `impl`. The attribute covers the field alone, so the impl's methods
//! must still be analyzed — here, a panic reachable from the event loop.

pub struct Runtime {
    pub engines: Vec<u32>,
    #[cfg(test)]
    pub(crate) holds: Vec<u32>,
}

impl Runtime {
    pub fn lead_engine(&self) -> u32 {
        *self.engines.first().unwrap()
    }
}

pub fn event_loop(rt: &Runtime) -> u32 {
    rt.lead_engine()
}
