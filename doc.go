// Package unilog is a from-scratch Go reproduction of "The Unified Logging
// Infrastructure for Data Analytics at Twitter" (Lee, Lin, Liu, Lorek,
// Ryaboy; PVLDB 5(12), 2012).
//
// The repository rebuilds the systems the paper's pipeline runs through —
// Scribe daemons and aggregators, ZooKeeper coordination (the subset
// Scribe uses: persistent and ephemeral znodes, sessions that expire on
// their own next operation), staging and
// warehouse HDFS clusters, the hourly log mover, Thrift serialization, the
// unified client-events format, materialized session sequences, the client
// event catalog, a Pig-like dataflow engine with MapReduce cost accounting,
// and the §5 analytics applications (counting, funnels, CTR/FTR, n-gram
// user models, collocations) — over a deterministic synthetic workload with
// planted ground truth. internal/legacy keeps §3.1's application-specific
// formats as the "before" of the paper's session-reconstruction comparison,
// which the root TestSessionReconstructionCosts asserts.
//
// Three of the paper's systems are not reproduced as separate systems;
// each one's function lives in a package that is on the pipeline. Oink
// (§3, scheduling and dataflow dependencies): Mover.MoveAllSealed's
// all-datacenters barrier is the "run B only after A sealed" dependency,
// the daily jobs behind it (session.BuildDay, the rollups, catalog.Rebuild,
// birdbrain.Build) are called in order by cmd/unilog-demo and
// scenario.Run, and the execution trace is logmover.AuditRecord. Elephant
// Twin (§6, index push-down): internal/columnar's zone maps prune the
// chunks a selection cannot match and a name pattern is evaluated once per
// dictionary entry, held by tests to the unpruned scan of the same day;
// the full-text index is not reproduced. Protocol Buffers and Elephant Bird
// (§3): every message here is Thrift compact, and the hand-written Struct
// implementations (events.ClientEvent, session.Record) need no schema
// compiler.
//
// The §2 transport encodes each client event once, at the aggregator.
// Daemons batch messages to the aggregators ZooKeeper names; an aggregator
// walks each client-events message once into a chunk.Builder and, at each
// roll, stages the stream as one chunk image (chunk.Builder.AppendImage):
// a CRC-framed section table, then the meta and the eight column sections
// of a chunk, back to back — the very layout the warehouse stores a chunk
// in. A message the encoder refuses — no thrift, or a
// name events.ParseName rejects — is staged as a row of
// scribe.InvalidCategory, counted in AggregatorStats.Invalid and
// scribe.aggregator.invalid, sealed whenever client events are, and moved
// as that category's rows. Every
// other category is framed as length-prefixed records (internal/recordio)
// and gzipped on the fly at level 3 (scribe.stagingLevel).
// recordio.GzipWriter is block-buffered: frames gather in a 32 KiB block
// and the compressor — drawn from a pool and handed back by Close — is
// called once per block, not once per record, which moves no byte of the
// output (deflate does not care how its input was cut; the package's
// identity test holds it to compress/gzip fed the same frames at once) but
// means appended data is only certain to have reached the destination once
// Close returns. A datacenter seals an hour (Datacenter.SealHour) once its
// daemons' spools are drained and its aggregators' streams of that hour
// and earlier are staged; a later hour's stream stays open, so the entries
// a spool hands it at the seal share one image with the rest of their
// hour. When every datacenter has sealed an hour, the log mover
// (internal/logmover) reads each staged image back with the chunk
// reader's checks (chunk.ReadImage: every section's CRC frames, then each
// column's decoder, damage naming the file and the column) and re-chunks
// the hour's rows into chunks of columnar.DefaultChunkRows
// (chunk.Builder.AddColumns: each dictionary remapped once per entry,
// details values merged in the typed form their staged column holds them,
// numbers as numbers and hex as bytes, none rendered to text), so a client-events
// hour publishes its chunk images and their marker alone, one file per
// chunk, byte for byte the chunks a seal
// of its records writes, with no deflate, no inflate and no record walk
// between the aggregator and the warehouse. A failed move publishes
// nothing and leaves the staging files for the retry. An hour of another
// category is published as rows: the mover inflates each staging file end
// to end as its sanity check — every member's CRC-32 and length are
// checked, and every record frame is walked to a clean boundary — and
// appends its compressed bytes, as they are, to a merged warehouse part; a
// gzip file is a concatenation of gzip members and every reader reads
// through member boundaries, so merging small files into big ones needs no
// second deflate. Every read of a gzipped record file — that check, the
// warehouse row scans, the dataflow row formats, the session store, the
// catalog — goes through recordio's own decoder, which inflates from the
// file image in memory into one fixed window, a piece at a time, and
// refuses what compress/gzip refuses; compress/gzip writes, and is the
// reference its tests hold it to. Parts roll at staging-file boundaries
// once Mover.TargetFileBytes of raw payload is reached, the hour is
// published by one directory rename, and an audit record accounts for
// every file, record and byte. The mover changes no record: a staging
// file takes one of two paths, sealed (a client-events image re-chunked)
// or spliced (another category's gzip members appended), and the
// logmover.* telemetry series count hours, records, bytes and the files
// each path took.
//
// The dataflow engine keeps the operators the jobs run and meters the
// three numbers §4 argues from: map tasks (one per file), bytes read and
// bytes shuffled; it simulates no cluster time. It executes out-of-core
// with a sort-merge shuffle, the way the MapReduce jobs it models do:
// datasets are lazy pull-based iterator pipelines (scans buffer one split
// at a time; Filter/Project/Union stream, and a Project directly on a
// pushed-down scan folds into the scan instead), and the pipeline breakers —
// GroupBy, GroupAll, OrderBy — are external operators that buffer
// their input, numbering its distinct rendered keys, and, each time
// dataflow.Job.MemoryBudget is exceeded, sort the buffer on (rendered key,
// optional order column, insertion sequence) — the distinct keys ranked
// once, the tuples moved by a counting sort on the ranks — and spill it
// as one budget-sized sorted run in a CRC-framed spill file
// (FuzzSpillRecord holds the run-record decoder to ErrCorrupt /
// ErrTruncated on any bytes). The reduce side is a streaming k-way merge
// over the runs (cascaded first when there are more than 64 of them):
// groups arrive in global key order with their tuples pre-ordered
// (GroupByOrdered's secondary sort, which the legacy-log sessionization
// uses; the raw-log queries shuffle per-session partials instead, below)
// and reduce through
// EachGroup, ForEachGroup or Sum (integer columns only; anything else is
// an error naming the column and type), joins advance two ordered streams
// in lockstep, and OrderBy is a merge sort over the same runs — so peak
// reduce memory is the run fan-in (one buffered tuple per run), never the
// group count. A zero budget (the default) never trips:
// the same table with one never-spilled run, so any budget produces
// identical relations in identical order at the same modelled cost,
// asserted by internal/dataflow's property tests and, for the day-scale
// jobs, by internal/analytics' layout × budget test (rollups and the
// raw-log count equal over row files and sealed chunks, unbudgeted and
// under 2 and 32 KiB with spilling forced); the benchmark's batch-rows-spill
// workload (bench/README.md) rolls up, sessionizes and sorts a larger
// day under the same budget and checks every answer against an oracle.
// GroupBy, GroupByOrdered and GroupAll are thin wrappers over one push-fed
// shuffle, dataflow.Shuffle, which a map-side combiner can feed directly;
// Dataset.EachBatch is the matching scan entry point, handing a pushed-down
// projection's splits to a fold one column batch (a chunk.Batch) at a time
// with the tuple scan's metering and no tuple built.
// The day-scale jobs fold those batches. The §3.2 rollup job runs
// map-combine-reduce: its combiner resolves each batch's name dictionary
// entries through the name table and its address entries to countries
// once, counts rows by (name ID, country, logged-in) — one map write per
// row — and expands each distinct combination through the name's five
// rolled names when the scan ends, so only distinct partial counts shuffle.
// The two raw-log queries (CountRawDay, FunnelRawDay) share one group-by:
// each batch folds into a pointer-free table keyed by (user id, session
// id); whenever the table outgrows the memory budget, and at the end, each
// key's (timestamp, name ID) events are stably sorted and shuffled as one
// delta-encoded partial; the reduce is a plain GroupBy that concatenates a
// key's partials, stably sorts them by timestamp (scan order breaks ties,
// as the per-event secondary sort did) and cuts sessions at 30-minute gaps.
//
// Event names are numbered once per process, in the events name table
// (names.go): a valid name is validated and digested the first time it is
// seen into an events.NameEntry — a dense ID, six hierarchy-prefix path IDs,
// five rolled names, a hash — and later lookups, by message bytes, string or
// parsed name, are one read-locked map read. Counters key leaves by the ID
// and shard by the hash, the cluster router partitions by the hash, the
// rollup combiner counts by the ID. Nothing on disk holds these IDs.
//
// Sealed warehouse hours additionally carry a columnar encoding
// (internal/columnar seals and scans it; the layout, its one encoder and
// the typed reader are the leaf package internal/chunk, below dataflow, so
// the daily session job can read chunks too): the log mover and SealHour
// cut each client-events hour into fixed-size row-count chunks, each one
// image file (_col-NNNNN.col) of CRC-framed sections, one per column —
// dictionary + varint IDs for the low-cardinality strings (name,
// session_id, ip), zigzag deltas for timestamps, run-length bytes for
// initiator and the derived logged_in flag, and for details a sorted
// key dictionary then one sub-column per key (a presence bitmap when some
// rows lack the key, and the values packed by type: a value dictionary,
// hex packed to bytes, decimal as uvarints, or raw, whichever is smallest
// for that key in that chunk) — behind a section table and a meta
// section holding row count and min/max zone maps over timestamp and
// name, and an hour-level _col-SEALED marker written after the last
// chunk: the hour's manifest, one CRC record holding every chunk's zone map
// and section table (version 3), so a query plans and prunes the hour from
// one read of one file. Only the marker makes an hour columnar: a seal that dies
// mid-hour leaves its partial chunks invisible (scans keep using the
// row files) and the next seal cleans them up and retries, so a torn
// seal can never silently drop rows. The seal builds chunks from the wire:
// warehouse.ScanHourRecords hands it the raw records of the hour's row
// files (through chunk.ScanFileRecords, the per-file loop every row-file
// reader shares, which names a damaged file in its error) and
// chunk.Builder.AddRecord walks each one without allocating
// (events.Header.DecodePairs: the strings and details pairs stay slices of
// the record) and appends the row straight to its column accumulators —
// varints as they arrive, one map probe per dictionary column, each
// details value appended to its key's sub-column with a repeated key
// keeping its last value, a name validated once per distinct value per
// chunk — so no ClientEvent is built to be taken apart again
// (TestSealAllocatesPerChunkNotPerEvent; BenchmarkSealHour reports ns and
// allocs per event). TestSealedBytesPinned holds the bytes of chunk format
// 2, and TestSealedNoLargerThanRows holds a sealed hour's chunk images to
// no more bytes than its row files (0.83 of them; 4.2 times them when
// details were stored as length-prefixed pairs); columnar.seal.bytes over
// columnar.seal.rows is the sealed bytes per row. The chunk images are
// auxiliary (underscore-prefixed): row scanners never see them, an hour
// with the marker is read from its chunks whether or not rows remain
// beside it (an hour SealHour sealed keeps its rows; an hour the mover
// sealed has none), and sealed and unsealed hours coexist in one day. There
// is one client-events format over the two layouts,
// dataflow.ClientEventFormat: its splits are the day reader's files
// (chunk.HourFiles: the chunks a sealed hour's manifest lists, an unsealed
// hour's row files), and each split is opened as one column batch
// (chunk.LoadChunk under the zone map its split carries, chunk.ReadRowFile)
// from which the tuples are built, so an hour reads the same before and
// after its seal. Queries opt in through dataflow.Selection — a
// declarative (columns, name pattern, time range) triple — and
// Job.LoadDirsSelective, where the format absorbs the selection: at
// planning it drops whole chunks whose manifest zone maps cannot intersect
// a head-anchored name prefix or the time window (a pruned chunk is never
// a split: no scan worker sees it and no byte of its image is read), then
// in the scan, with a name
// pattern reads the name section alone and matches the pattern over the
// range of its sorted dictionary that starts with the pattern's literal
// head (a chunk with no matching entry stops there,
// columnar.chunks.dict_pruned), and only then reads the sections of the
// other columns the projection and predicate reference (one
// hdfs.FS.ReadAt each), and builds only the projected columns of the rows
// that pass. A row file is
// walked with events.Header, no ClientEvent built, each distinct name
// validated once per file, the details column only when projected. Any
// other format (RawRecordFormat's legacy logs), and any predicate that is
// an arbitrary Go closure rather than a Selection, gets the filter and
// projection applied tuple-side — identical relations either way,
// asserted by internal/columnar's property tests (TestColumnarMatchesRowScan
// holds the sealed day to its row files' relation over a sweep of
// selections; TestZoneMapPruning requires chunks pruned and fewer bytes
// read than the scan of the rows; FuzzSelectMatchesFilter holds any
// pattern and window over sealed and unsealed hours to the full scan
// filtered by Pattern.MatchesString) and by internal/dataflow's, which hold
// both layouts to a full ClientEvent.Unmarshal per row over every
// projection of one, three and eight columns, hand-built edge records and
// a fuzzer (FuzzRowTupleMatchesDecode); TestRowScanAllocatesLittlePerRow
// and BenchmarkRowScan measure the row scan per event. What the
// pruned+projected path costs is the benchmark's batch-sealed workload,
// what the row path costs its batch-rows-spill. The log mover seals every
// client-events hour as it publishes it: the rows of each staged chunk
// image go on into a columnar.Sealer, whose chunks are renamed into place
// as the whole hour, with no row file beside them, so an hour is encoded
// once on its way in, stored once, and rollups, raw-log counting, and
// funnel walks go columnar the moment it lands. warehouse.ScanDay, the
// one reader that builds a ClientEvent per row, reads through the same
// day reader (chunk.ReadHour, then chunk.Columns.Event).
//
// The chunk reader's contract is the ID vector: a dictionary column
// decodes to the chunk's sorted distinct values plus one validated uint32
// ID per row (user_id and timestamp to []int64, details to per-key
// indexes that render a row's map only on request), with every CRC, range and
// trailing-byte check applied before a consumer sees a value and every
// error naming its file (FuzzChunkColumns holds the decoders to that).
// ClientEventFormat resolves tuple strings from those dictionaries, boxing
// each entry once per batch. The §4.2 daily job (session.BuildDay) never inflates a string per row: its
// two logical passes — histogram and dictionary, then session
// reconstruction — are one physical scan that remaps chunk-local IDs to
// day-global IDs once per distinct value, counts names by ID, appends
// 16-byte {timestamp, name ID, IP ID} entries with their (user, session ID)
// group to one flat table grown a block at a time, and when the scan ends
// builds the dictionary, orders the table by group with a counting sort,
// sorts each group (timestamp, then name rank) and encodes it through an
// ID -> code point table. The chunk batches it folds are released as it
// goes, so each chunk decodes into the vectors the last one handed back.
// The session partition is the one file the pipeline deflates at
// gzip.BestSpeed (session.sequenceLevel; the aggregators' gzip staging
// files, every category's but client events', are written at level 3,
// scribe.stagingLevel, and everything else at level 6 through
// recordio.NewGzipWriter): sequence strings of 2-byte
// runes fill deflate's hash chains, level 6 was ~40% of the job, and the
// fast level costs 0.12 B per event, leaving the sequences still over
// forty times smaller than the logs. A reader never knows the level.
// Catalog samples read a batch's remaining columns only while its name
// dictionary still holds a name short of its quota, and materialize only
// the sampled rows. Hours without the _col-SEALED marker go through the
// same loop: the day reader (chunk.ReadHour) walks each of their row files
// with events.Header into the same column vectors a chunk decodes to,
// validating names as the seal does (FuzzRowBatchMatchesSeal holds it to
// the seal column by column); output — records, sequence files,
// dictionary.gz — is byte-identical either way, held by an equivalence
// test against the two-row-scan reference. The dictionary
// is written last, so a day that has one is complete: BuildDay on it
// returns ErrDayBuilt before reading anything, and session files without
// a dictionary are a dead run's and are removed before the rebuild.
//
// Parallelism lives in the scan and nowhere else. dataflow.Job.Parallelism
// (default runtime.GOMAXPROCS(0)) caps the tuple scan's decode workers
// (EachBatch folds its batches serially on the calling goroutine): file
// splits decode on a pool and a reorder buffer delivers them in plan
// order, so a scan's output and its cost accounting are byte-identical at
// any setting; with one worker or one split the serial split-by-split
// iterator runs instead. Everything after the scan — the run sort, the
// spill, the cascade, the merge and each operator's reduce loop — is one
// streaming path on the calling goroutine; property tests hold every
// operator fed by the pooled scan to the serial scan's relation, order
// and stats for parallelism {1,2,8} x budgets {0, 32 KiB, cascading}
// under the race detector, and the package's TestMain fails if a scan
// worker outlives its job. The pool pays on two cores: a probe of a
// generated hour of row files (23,583 events in six files) on a 2-vCPU
// host took 1.5-2x less wall time for the tuple scan at Parallelism 2 than
// at 1. An hour the mover did not seal — a warehouse written by
// warehouse.Writer — is sealed by columnar.SealDayParallel, whose worker
// cap is its own, hours being independent; and the pool depths and busy
// time report through telemetry
// (dataflow.parallel.workers, dataflow.parallel.scan.busy.ns,
// dataflow.parallel.scan.queue.depth, columnar.seal.workers).
//
// Beyond the paper's batch pipeline, internal/realtime adds the §6
// "real-time processing" direction as a Rainbird-style streaming counter
// subsystem: a tap on the Scribe aggregators fans accepted client events
// into sharded, one-minute-windowed hierarchical counters — one ring of
// minute buckets and one lock per shard
// (knobs: Config.Shards, Retention, QueueDepth, MaxBatch), which
// answer point lookups, prefix top-K, and time-range sums seconds after
// events occur. birdbrain.Lambda splits serving between the two paths —
// "today so far" from the realtime counters, sealed days from the
// warehouse rollup job run over what the warehouse holds at query time,
// with no cache, so an hour backfilled after a staging outage counts as
// soon as it lands — and realtime.Reconcile diffs the day a counter holds,
// the one that tapped it live or one recovered after a kill, against the
// batch job to prove both paths compute identical §3.2 rollup tables.
//
// The counter hot path is interned: each event's name resolves to its
// events.NameEntry — hierarchy prefixes, §3.2 rollup names and hash
// digested once per process — and its country to a per-counter ID, so
// steady-state ingestion is an allocation-free read-locked lookup plus one
// integer-keyed increment, and query results resolve IDs back to strings
// only at the edges; a read of a path the counter never counted (most, on
// a cluster partition) costs nothing. A minute
// bucket is its leaf table, (name, country, logged-in) → count: §3.2
// defines every prefix count and rollup row as a sum over full names, so
// the write path counts the leaf and marks the bucket stale, PathSum,
// Series and TopK rebuild a stale bucket's prefix sums from its leaves the
// first time they read it (realtime.derive.buckets / realtime.derive.ns
// show that cost) and a clean bucket is a map read as before, and
// RollupSnapshot and RollupTotal sum leaves and expand each distinct one
// into its five rows. Each shard also keeps its hour sums path-major: one
// row per path, one entry per cell of a short ring of hour cells, a cell
// marked stale by the write that dirties a clean minute of its hour, and a
// dense row index, a slice indexed by path ID like the counted-path bitset.
// PathSum and TopK share one read kernel, Counter.SumPaths, that takes
// every hour a window covers whole from the rows (a stale cell's column
// rebuilt first; realtime.derive.hours counts the rebuilds,
// realtime.hours.rows the rows) and reads minutes only at the window's
// edges, so a day-window read is one slice index per path per shard and a
// sum of its row's run of cells in a local, walked, like the edge minutes
// and Series' minutes, by a wrapping index with no division. Reads
// are clamped to the live minutes, from the retention horizon to the newest
// minute applied; since no minute past that one holds a count, a window
// that runs to the end of its hour or beyond reads that hour whole from its
// cell. IDs the counter never counted are skipped. The tap
// never builds a ClientEvent: events.Header is one allocation-free walk
// over the compact-Thrift message (every field read or skipped, so a
// damaged message fails as ClientEvent.Decode, which is built on the same
// walk, fails it), the name is looked up by its bytes in the message and
// parsed and validated only the first time the process sees them, and the
// country is read off the IP bytes. Three doors lead to the counters and
// meet at one digested observation, with WAL replay beside them:
// Batcher.Add and Counter.Ingest for decoded events (tests, benchmarks),
// Batcher.AddObservation for an event already reduced to
// realtime.Observation {name-table entry, minute, country, login bit} — a
// cluster delivery, which never looks the name up again — and TapBatch from
// the header. Counter.Sync, the read-your-writes barrier, waits until every
// batch enqueued before it is applied. Each shard counts the batches sent
// to its queue and the batches its drain has applied, so a shard with
// nothing in flight costs Sync two atomic loads, and only a shard whose
// drain still holds a batch is sent a sync message and waited on
// (realtime.sync.calls, and realtime.sync.waits per shard waited on).
//
// The counters are durable: realtime.Open roots a counter in a directory
// where every drained batch is appended to a per-shard, CRC-framed
// write-ahead log (recordio.CRCWriter framing; Config.FsyncEvery trades
// fsync cadence against throughput) before it is applied, and a periodic
// snapshotter (Config.SnapshotEvery) serializes the shard rings and
// truncates the covered log segments. WAL records are
// dictionary-compressed (WAL format v2): each segment embeds a first-seen
// name once and logs a few varint bytes per observation after that,
// cutting the log from ~36 B to a few bytes per event; a record or
// snapshot header of any other version is rejected as corrupt. A record
// is one batch as a producer handed it over, so a Batcher logs hundreds
// of events per record and Counter.Ingest exactly one per call — its
// own dictionary delta, its own write(2), its own share of an fsync
// (realtime.wal.record_events is the histogram of that). A snapshot
// (format v4) is the leaf table: a header with the full Stats block, so
// activity counters survive restarts, then the live leaves as WAL records
// of lead byte 3 — each leaf one observation with a count, under one
// dictionary for the file — nothing derived, so a capture reads the leaves
// as they stand. A load reads them back with the WAL's own decoder and
// applies each with the drain's own applyOne on its name's shard, and
// prefix sums are derived when first read. Formats v1 to v3 are retired: a
// directory last written by a binary from before v4 recovers from its WAL
// tail only. After a crash, Open loads the newest valid snapshot and
// replays the WAL tail on top —
// tolerating a torn final
// record, flipped bits, damaged or missing snapshots, and a changed
// shard count (replay re-digests every name) — so a restarted shard
// remembers "today so far" instead of waiting a day for the warehouse
// rollup, and still reconciles exactly against the batch path.
//
// internal/cluster scales that single counter out: N in-process
// realtime.Counter nodes behind a consistent-hash router (a two-level
// Dynamo-style map — event name to one of P fixed partitions, partition
// to R distinct nodes on a virtual-point ring, computed once at startup
// so crashes divert writes to hints rather than re-route the ring).
// The router reads each tapped message's events.Header, looks its name up
// in the events name table by its bytes, takes the partition from the
// entry's hash, and queues a 16-byte, pointer-free routed record — the
// entry's ID, the minute, the country's geo.Countries index, the login bit
// — nothing that aliases the Scribe buffer, no ClientEvent, no string.
// Every event lands on all R replicas through one send queue per node,
// which adopts the router's per-node slice as its backlog; a delivery
// resolves the IDs against one events.NameEntries snapshot (the replicas
// share the router's table in-process) and feeds one Batcher per partition
// counter and flushes them before it lets go of the node, so N delivered
// events cost each partition's WAL one record, not N (Config.FsyncEvery on a
// cluster node therefore counts deliveries, not events), and it applies
// all of a batch or none of it. A delivery fails only when the node is
// down, so the first failed one parks the queue: its backlog and every
// later write to the node wait as hints, without an attempt. A
// heartbeat/suspicion failure detector (alive -> suspect -> dead on a
// zk.Clock, so scenarios run it deterministically) is the one retry
// signal — a Tick that sees the node alive replays the hints in order,
// and a send to a node it declared dead parks without trying —
// each node's own WAL/snapshot recovery remains the intra-node story,
// and the two together make a mid-day crash + restart converge back to
// exact counts. On the read side birdbrain.Scatter first calls
// Cluster.Sync, every partition counter's Sync on every live node — on an
// idle cluster two atomic loads per counter, no goroutine round trip, no
// lock — then fans PathSum / TopK / Series / RollupSnapshot across one live
// replica per partition, merges the disjoint partials, and degrades
// instead of failing. PathSum and TopK merge in name-ID space: the path, or
// the parent's children, resolve once to IDs of the process-wide events
// name table, which the router already routes by, each partition adds its
// counts into one vector (Node.SumPaths), and TopK ranks that vector once,
// resolving strings only for the children it keeps. Where router and
// replicas are separate processes, a replica would first need the router's
// IDs (ROADMAP's parked "dictionary delta"). The fan degrades: a query
// served around a dead replica is marked Degraded (Failovers counts the
// fallen primaries), and only a partition with no live replica at all
// makes the answer Partial; a path no name lies under still fans out, so
// its meta is as honest as any other. Scatter.ReplicaTimeout arms a hedge
// against slow-but-alive replicas: a partition query that has not answered
// within the timeout races the next replica in parallel and takes the
// first answer, so a wedged node costs one timeout instead of a whole
// query. The node-crash scenario cell asserts the whole story
// in CI: crash one node of a 3-node R=2 cluster mid-day, queries keep
// answering (degraded) during the outage, and after restart + handoff
// replay the scatter-gathered day reconciles exactly against the batch
// rollups.
//
// Every subsystem reports into internal/telemetry, a dependency-free
// metrics registry: atomic counters and gauges, log-linear histograms
// (Observe is allocation-free; quantiles are accurate to one bucket
// width, ~6%), gauge funcs for wiring existing Stats fields through
// without duplication, and spans that time pipeline stages into
// histograms (realtime.recovery -> .snapshot/.wal children). Metric
// names follow subsystem.metric.unit — realtime.ingest.events,
// dataflow.spill.bytes, realtime.wal.fsync.ns — and instrumentation
// sits only at batch/flush/split/pass granularity, so the hot paths
// stay allocation-free with telemetry on (asserted by benchmarks). To
// add an instrument: declare a package-level handle via
// telemetry.GetCounter/GetGauge/GetHistogram (or RegisterGaugeFunc for
// computed values) and update it at a coarse boundary. Everything is
// exposed three ways: telemetry.Snapshot() returns the registry as a
// JSON-ready value, telemetry.Handler() serves it at /debug/unilog
// (expvar-style text, or JSON with ?format=json — cmd/unilog-demo
// -http serves it live and CI smoke-tests it), and StartSummaryLogger
// emits a periodic one-line delta of series that changed. Every
// scenario-grid cell embeds the full snapshot, histogram summaries
// (p50/p95/p99) included.
//
// The traffic shapes the paper's infrastructure existed to survive are
// data, not code: internal/scenario turns a declarative JSON workload
// spec — named client classes with rate fractions and poisson / gamma /
// uniform arrival processes, per-session clock skew, one seed, and one
// "faults" list of {kind, subject, start_minute, end_minute, magnitude}
// entries: a flash_crowd multiplying a namespace subtree, an outage of a
// region whose daemon spools replay as backfill, a slow_consumer delaying
// the realtime drains, a node_crash of one cluster node — into a
// composable event-stream source over the workload generator (Stream
// transforms stack like middleware), executes it through the full
// multi-region pipeline with the faults injected (one rule moves each
// region, the counter and each node to whether a fault covers it at the
// clock's minute, acting only on a change), and evaluates the spec's
// declared invariants: reconcile-exact after backfill, exactly-once
// delivery, required spill or backpressure telemetry, event-volume
// floors. cmd/scenariogrid runs
// a (scenario x config) experiment matrix from a grid file, emitting one
// machine-readable JSON per cell (verdicts plus telemetry snapshot) and
// exiting nonzero if any cell's declared invariants fail — it judges
// nothing else; CI's scenario-matrix job runs the committed grid under
// ci/scenarios/ on every push.
//
// There is one way to measure performance: the benchmark in bench/
// (BENCHMARK.json, bench/README.md) — five workloads, every answer
// checked against an oracle, end-to-end metrics with bounds and a
// per-layer traced run. The paper's quantified claims (compression
// ratio, map-task reduction, funnel and CTR recovery, n-grams,
// collocations) are asserted by the package tests and reported by the
// root bench_test.go. See the examples/ directory for runnable entry
// points.
package unilog
