package conf

import (
	"math"
	"strconv"
	"time"
)

// catalogue is the full functional-parameter surface, mirroring Spark 2.4's
// configuration reference: 19 shuffle, 16 compression/serialization,
// 14 memory, 14 execution-behavior, 13 network, 32 scheduling and 9 dynamic
// allocation parameters — Table 1's 117 total. A wired entry also holds the
// values it accepts, and the comment above it says why its bounds are where
// they are.
var catalogue = []Parameter{
	// Shuffle (19)
	p("shuffle.reducer.maxSizeInFlight", Shuffle, "48m", "max map output fetched concurrently per reduce task"),
	p("shuffle.reducer.maxReqsInFlight", Shuffle, "2147483647", "max outstanding fetch requests per reduce task"),
	p("shuffle.reducer.maxBlocksInFlightPerAddress", Shuffle, "2147483647", "max blocks fetched from one host at once"),
	p("shuffle.maxRemoteBlockSizeFetchToMem", Shuffle, "2147483647", "remote blocks above this spill to disk on fetch"),
	p("shuffle.compress", Shuffle, "true", "compress map output files"),
	p("shuffle.file.buffer", Shuffle, "32m", "in-memory buffer per shuffle file stream (not modelled: the engine's chunk unit is fixed)"),
	// A failing fetch backs off retryWait << try, virtual time the heartbeats
	// fill event by event: 10 retries of 30s already wait 8.5 hours.
	wired("shuffle.io.maxRetries", Shuffle, "3", "bounded retries of a failed shuffle fetch before it surfaces (0 disables, at most 10)",
		in(strconv.Atoi, math.MinInt, 10, "an integer of at most 10")),
	p("shuffle.io.numConnectionsPerPeer", Shuffle, "1", "connections reused across hosts"),
	p("shuffle.io.preferDirectBufs", Shuffle, "true", "prefer off-heap buffers for shuffle IO"),
	wired("shuffle.io.retryWait", Shuffle, "5s", "base backoff between fetch retries, doubled per retry (positive, at most 30s)",
		in(time.ParseDuration, time.Nanosecond, 30*time.Second, "a positive duration of at most 30s")),
	p("shuffle.service.enabled", Shuffle, "false", "external shuffle service"),
	p("shuffle.service.port", Shuffle, "7337", "external shuffle service port"),
	p("shuffle.service.index.cache.size", Shuffle, "100m", "index file cache in the shuffle service"),
	p("shuffle.maxChunksBeingTransferred", Shuffle, "2147483647", "max chunks allowed in transfer at once"),
	p("shuffle.sort.bypassMergeThreshold", Shuffle, "200", "partitions below which sort shuffle bypasses merge"),
	p("shuffle.spill.compress", Shuffle, "true", "compress data spilled during shuffles"),
	p("shuffle.accurateBlockThreshold", Shuffle, "100m", "threshold above which block sizes are recorded accurately"),
	p("shuffle.registration.timeout", Shuffle, "5000ms", "timeout for registration to the shuffle service"),
	p("shuffle.registration.maxAttempts", Shuffle, "3", "retries of shuffle service registration"),

	// Compression and Serialization (16)
	p("broadcast.compress", Compression, "true", "compress broadcast variables"),
	p("checkpoint.compress", Compression, "false", "compress RDD checkpoints"),
	p("io.compression.codec", Compression, "lz4", "codec for internal data"),
	p("io.compression.lz4.blockSize", Compression, "32k", "LZ4 block size"),
	p("io.compression.snappy.blockSize", Compression, "32k", "Snappy block size"),
	p("io.compression.zstd.level", Compression, "1", "ZSTD compression level"),
	p("io.compression.zstd.bufferSize", Compression, "32k", "ZSTD buffer size"),
	p("serializer", Compression, "java", "serializer implementation"),
	p("serializer.objectStreamReset", Compression, "100", "reset serializer cache every N objects"),
	p("kryo.classesToRegister", Compression, "", "classes to register with Kryo"),
	p("kryo.referenceTracking", Compression, "true", "track references for cyclic graphs"),
	p("kryo.registrationRequired", Compression, "false", "fail on unregistered classes"),
	p("kryo.registrator", Compression, "", "custom Kryo registrator"),
	p("kryo.unsafe", Compression, "false", "use unsafe-based Kryo serializer"),
	p("kryoserializer.buffer.max", Compression, "64m", "max Kryo buffer"),
	p("kryoserializer.buffer", Compression, "64k", "initial Kryo buffer"),

	// Memory Management (14)
	p("memory.fraction", Memory, "0.6", "heap fraction for execution and storage"),
	p("memory.storageFraction", Memory, "0.5", "storage share immune to eviction"),
	p("memory.offHeap.enabled", Memory, "false", "use off-heap memory"),
	p("memory.offHeap.size", Memory, "0", "off-heap memory size"),
	p("memory.useLegacyMode", Memory, "false", "legacy static memory management"),
	p("memory.spill.pressure", Memory, "stage", "spill amplification mode (not modelled: each stage's MemPressure sets it)"),
	p("storage.unrollMemoryThreshold", Memory, "1m", "initial unroll memory per block"),
	p("storage.replication.proactive", Memory, "false", "proactively re-replicate lost cached blocks"),
	p("storage.memoryMapThreshold", Memory, "2m", "mmap threshold for block reads"),
	p("cleaner.periodicGC.interval", Memory, "30min", "driver GC trigger interval"),
	p("cleaner.referenceTracking", Memory, "true", "clean state of garbage-collected references"),
	p("cleaner.referenceTracking.blocking", Memory, "true", "block on cleanup tasks"),
	p("cleaner.referenceTracking.blocking.shuffle", Memory, "false", "block on shuffle cleanup"),
	p("cleaner.referenceTracking.cleanCheckpoints", Memory, "false", "clean checkpoints of collected references"),

	// Execution Behavior (14)
	p("broadcast.blockSize", Execution, "4m", "block size of broadcast chunks"),
	p("broadcast.checksum", Execution, "true", "checksum broadcast blocks"),
	wired("executor.cores", Execution, "32", "virtual cores per executor — cmax of the sizing policies",
		in(strconv.Atoi, 1, math.MaxInt, "an integer of at least 1")),
	p("default.parallelism", Execution, "totalCores", "default partitions of shuffle operators"),
	// Every executor beats once per interval, so a nanosecond one never lets
	// the clock reach the job's end, and a few hundred hours of the six-beat
	// loss timeout overflow a time.Duration.
	wired("executor.heartbeatInterval", Execution, "10s", "executor→driver heartbeat period, 100ms to 1h; the driver suspects an executor after 3 silent periods and declares it lost after 6",
		in(time.ParseDuration, 100*time.Millisecond, time.Hour, "a duration from 100ms to 1h")),
	p("files.fetchTimeout", Execution, "60s", "timeout fetching driver-hosted files"),
	p("files.useFetchCache", Execution, "true", "share fetched files between executors"),
	p("files.overwrite", Execution, "false", "overwrite fetched files that already exist"),
	// The floor is HDFS's default dfs.namenode.fs-limits.min-block-size: a
	// negative size panics the file system and a tiny one splits the input
	// into more blocks than memory holds.
	wired("files.maxPartitionBytes", Execution, "128m", "max bytes per input partition — the DFS block/split size",
		in(ParseBytes, 1<<20, math.MaxInt64, "a size of at least 1m")),
	p("files.openCostInBytes", Execution, "4m", "modelled open cost when packing splits"),
	p("hadoop.cloneConf", Execution, "false", "clone Hadoop conf per task"),
	p("hadoop.validateOutputSpecs", Execution, "true", "validate output directory specs"),
	// A task's launch CPU is capped at a minute.
	wired("executor.taskOverheadMillis", Execution, "20", "per-task launch/deserialization CPU overhead (0 or less: none; at most 60000)",
		in(strconv.Atoi, math.MinInt, 60000, "an integer of at most 60000")),
	p("executor.logs.rolling.maxRetainedFiles", Execution, "-1", "retained rolled executor logs"),

	// Network (13)
	p("rpc.message.maxSize", Network, "128", "max RPC message size (MiB)"),
	p("blockManager.port", Network, "random", "block manager listen port"),
	p("driver.blockManager.port", Network, "random", "driver block manager port"),
	p("driver.bindAddress", Network, "driver.host", "driver bind address"),
	p("driver.host", Network, "local hostname", "driver advertised host"),
	p("driver.port", Network, "random", "driver listen port"),
	p("network.timeout", Network, "120s", "default network timeout (not modelled: the cluster's control latency is fixed)"),
	p("port.maxRetries", Network, "16", "port binding retries"),
	p("rpc.numRetries", Network, "3", "RPC retry count"),
	p("rpc.retry.wait", Network, "3s", "wait between RPC retries"),
	p("rpc.askTimeout", Network, "network.timeout", "RPC ask timeout"),
	p("rpc.lookupTimeout", Network, "120s", "RPC endpoint lookup timeout"),
	p("core.connection.ack.wait.timeout", Network, "network.timeout", "ack timeout before connection reset"),

	// Scheduling (32)
	p("cores.max", Scheduling, "unlimited", "max cores per application"),
	p("locality.wait", Scheduling, "3s", "locality degradation wait (not modelled: the driver prefers local tasks without waiting)"),
	p("locality.wait.node", Scheduling, "locality.wait", "node-local wait"),
	p("locality.wait.process", Scheduling, "locality.wait", "process-local wait"),
	p("locality.wait.rack", Scheduling, "locality.wait", "rack-local wait"),
	p("scheduler.maxRegisteredResourcesWaitingTime", Scheduling, "30s", "max wait for executor registration"),
	p("scheduler.minRegisteredResourcesRatio", Scheduling, "0.8", "min registered resources before scheduling"),
	wired("scheduler.mode", Scheduling, "FIFO", "inter-job scheduling mode — FIFO or FAIR executor-slot sharing",
		oneOf("FIFO", "FAIR")),
	p("scheduler.revive.interval", Scheduling, "1s", "offer revival interval"),
	p("scheduler.listenerbus.eventqueue.capacity", Scheduling, "10000", "listener bus queue capacity"),
	p("blacklist.enabled", Scheduling, "false", "executor blacklisting"),
	p("blacklist.timeout", Scheduling, "1h", "blacklist expiry"),
	p("blacklist.task.maxTaskAttemptsPerExecutor", Scheduling, "1", "attempts per executor before blacklisting"),
	p("blacklist.task.maxTaskAttemptsPerNode", Scheduling, "2", "attempts per node before blacklisting"),
	// Default 3 (Spark ships 2): the chaos plans' attempt budgets are
	// calibrated against a three-strike blacklist.
	wired("blacklist.stage.maxFailedTasksPerExecutor", Scheduling, "3", "consecutive failed tasks before an executor is blacklisted",
		in(strconv.Atoi, math.MinInt, math.MaxInt, "an integer")),
	p("blacklist.stage.maxFailedExecutorsPerNode", Scheduling, "2", "blacklisted executors per node per stage"),
	p("blacklist.application.maxFailedTasksPerExecutor", Scheduling, "2", "app-wide failed tasks per executor"),
	p("blacklist.application.maxFailedExecutorsPerNode", Scheduling, "2", "app-wide blacklisted executors per node"),
	p("blacklist.killBlacklistedExecutors", Scheduling, "false", "kill blacklisted executors"),
	p("blacklist.application.fetchFailure.enabled", Scheduling, "false", "blacklist on fetch failure"),
	wired("speculation", Scheduling, "false", "speculative task execution", boolean),
	p("speculation.interval", Scheduling, "100ms", "speculation check interval"),
	// At 1 or below every running task is a straggler.
	wired("speculation.multiplier", Scheduling, "1.5", "slowness multiplier for speculation",
		in(parseFloat, math.Nextafter(1, 2), math.MaxFloat64, "a finite number above 1")),
	// (0, 1]: the smallest positive float is the open bound's closed twin.
	wired("speculation.quantile", Scheduling, "0.75", "fraction complete before speculation",
		in(parseFloat, math.SmallestNonzeroFloat64, 1, "a number in (0, 1]")),
	p("task.cpus", Scheduling, "1", "cores per task"),
	wired("task.maxFailures", Scheduling, "4", "task failures before job failure",
		in(strconv.Atoi, 1, math.MaxInt, "an integer of at least 1")),
	p("task.reaper.enabled", Scheduling, "false", "monitor killed tasks"),
	p("task.reaper.pollingInterval", Scheduling, "10s", "reaper polling interval"),
	p("task.reaper.threadDump", Scheduling, "true", "dump threads of stuck killed tasks"),
	p("task.reaper.killTimeout", Scheduling, "-1", "JVM kill timeout for stuck tasks"),
	p("stage.maxConsecutiveAttempts", Scheduling, "4", "stage attempts before abort"),
	p("executor.threads", Scheduling, "executor.cores", "worker-thread pool size (not read: the sizing policy sets it, e.g. -policy static:N)"),

	// Dynamic Allocation (9)
	p("dynamicAllocation.enabled", DynamicAlloc, "false", "scale executor count with load"),
	p("dynamicAllocation.executorIdleTimeout", DynamicAlloc, "60s", "remove idle executors after"),
	p("dynamicAllocation.cachedExecutorIdleTimeout", DynamicAlloc, "infinity", "remove idle executors with cached blocks after"),
	p("dynamicAllocation.initialExecutors", DynamicAlloc, "minExecutors", "initial executor count"),
	p("dynamicAllocation.maxExecutors", DynamicAlloc, "infinity", "upper executor bound"),
	p("dynamicAllocation.minExecutors", DynamicAlloc, "0", "lower executor bound"),
	p("dynamicAllocation.executorAllocationRatio", DynamicAlloc, "1", "executors per pending task ratio"),
	p("dynamicAllocation.schedulerBacklogTimeout", DynamicAlloc, "1s", "backlog age triggering scale-up"),
	p("dynamicAllocation.sustainedSchedulerBacklogTimeout", DynamicAlloc, "schedulerBacklogTimeout", "subsequent scale-up trigger"),
}
