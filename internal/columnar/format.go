package columnar

import (
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/warehouse"
)

// EventsFormat and LoadDay are the names the benchmark module reads client
// events by; they stay until a change to the benchmark can edit bench/. The
// one client-events format is dataflow.ClientEventFormat.
type EventsFormat = dataflow.ClientEventFormat

// LoadDay loads one UTC day of client events under sel.
func LoadDay(j *dataflow.Job, day time.Time, sel dataflow.Selection) (*dataflow.Dataset, error) {
	return j.LoadDirsSelective(warehouse.HourDirs(j.FS, events.Category, day), EventsFormat{}, sel)
}
