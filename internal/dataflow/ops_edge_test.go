package dataflow

import (
	"errors"
	"testing"

	"unilog/internal/hdfs"
)

func emptyJob() *Job { return NewJob("edge", hdfs.New(0)) }

func TestProjectUnknownColumn(t *testing.T) {
	d := NewDataset(emptyJob(), Schema{"a"}, []Tuple{{int64(1)}})
	if _, err := d.Project("nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupByUnknownColumn(t *testing.T) {
	d := NewDataset(emptyJob(), Schema{"a"}, []Tuple{{int64(1)}})
	if _, err := d.GroupBy("nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregateUnknownColumn(t *testing.T) {
	d := NewDataset(emptyJob(), Schema{"k", "v"}, []Tuple{{"a", int64(1)}})
	g, err := d.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Sum("nope", "s"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupByEmptyDataset(t *testing.T) {
	d := NewDataset(emptyJob(), Schema{"k"}, nil)
	g, err := d.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.EachGroup(func(key Tuple, _ []Tuple) error {
		t.Fatalf("empty group-by visited group %v", key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := g.Sum("k", "n")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res.Count(); err != nil || n != 0 {
		t.Fatalf("sum = %d rows, %v", n, err)
	}
}

func TestOrderByStrings(t *testing.T) {
	d := NewDataset(emptyJob(), Schema{"s"}, []Tuple{{"banana"}, {"apple"}, {"cherry"}})
	out, err := d.OrderBy("s", true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := out.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "apple" || rows[2][0] != "cherry" {
		t.Fatalf("order = %v", rows)
	}
	if _, err := d.OrderBy("nope", true); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestOrderByStable(t *testing.T) {
	d := NewDataset(emptyJob(), Schema{"k", "tag"}, []Tuple{
		{int64(1), "first"}, {int64(1), "second"}, {int64(0), "zero"},
	})
	out, err := d.OrderBy("k", true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := out.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	if rows[1][1] != "first" || rows[2][1] != "second" {
		t.Fatalf("unstable sort: %v", rows)
	}
}

func TestShuffleAccountingCoversValueKinds(t *testing.T) {
	j := emptyJob()
	d := NewDataset(j, Schema{"k", "m", "b", "f", "bool", "i32"}, []Tuple{
		{"key", map[string]string{"a": "b"}, []byte{1, 2, 3}, 1.5, true, int32(7)},
	})
	if _, err := d.GroupBy("k"); err != nil {
		t.Fatal(err)
	}
	if j.Stats().ShuffleBytes == 0 {
		t.Fatal("no shuffle bytes charged for mixed-type tuple")
	}
}
