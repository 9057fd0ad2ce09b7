//! The other half: `write_back` acquires `pool`, and `grow` nests
//! pool -> state in the declared order. Combined with the sibling
//! file's state -> pool edge, the acquisition graph has a cycle — and
//! that inverted edge is what the graph reports.

impl FixturePager {
    pub fn write_back(&self, d: &[u8]) {
        let p = self.pool.lock();
        p.push(d);
    }

    pub fn grow(&self) {
        let p = self.pool.lock();
        let s = self.state.lock();
        grow_into(p, s);
    }
}
