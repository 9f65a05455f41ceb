package dataflow

// OpenDataset starts one execution of d and returns its cursor, for the
// external tests that drive a scan's iterator by hand.
func OpenDataset(d *Dataset) (Iterator, error) { return d.open() }
