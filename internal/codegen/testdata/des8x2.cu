// Generated by streammap for DES-N8 on M2090 (2 GPUs)
// 56 partitions, 512 fragment iterations per pipeline stage

#include <cuda_runtime.h>

// ---- partition 0: nodes {0} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition0_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  //   [  8192] output {0 1} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_DupSplit2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 1: nodes {2} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=6 executions/SM, F=832 DT threads
// shared memory: 8192 bytes/execution (x6 executions)
__global__ void partition1_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 8192 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 192;      // last 832 threads stream global memory
  float *smBase = sm + exec * 2048;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Identity(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 2: nodes {3} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=8 executions/SM, F=768 DT threads
// shared memory: 6144 bytes/execution (x8 executions)
__global__ void partition2_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 6144 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 256;      // last 768 threads stream global memory
  float *smBase = sm + exec * 1536;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 8) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_TakeR_r0(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 3: nodes {4,5,6} on GPU 0 ----
// parameters: S=64 compute threads/execution, W=6 executions/SM, F=640 DT threads
// shared memory: 7172 bytes/execution (x6 executions)
__global__ void partition3_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 7172 bytes per execution
  const int exec = threadIdx.x / 64;        // execution slot within the block
  const bool isDT = threadIdx.x >= 384;      // last 640 threads stream global memory
  float *smBase = sm + exec * 1793;
  // shared-memory buffer map (byte offsets):
  //   [     0] chan Expand_r0->KeyMix_r0 (1536 B)
  //   [  1536] chan KeyMix_r0->SBox_r0 (1536 B)
  //   [  3072] input {0 0} (2048 B, double buffered)
  //   [  5120] output {2 0} (2048 B, double buffered)
  //   [  7168] state of node 1 (4 B)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Expand_r0(smBase); // x1 firing(s)
      run_KeyMix_r0(smBase); // x64 firing(s)
      run_SBox_r0(smBase); // x64 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 4: nodes {7} on GPU 0 ----
// parameters: S=1 compute threads/execution, W=12 executions/SM, F=992 DT threads
// shared memory: 4096 bytes/execution (x12 executions)
__global__ void partition4_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 4096 bytes per execution
  const int exec = threadIdx.x / 1;        // execution slot within the block
  const bool isDT = threadIdx.x >= 12;      // last 992 threads stream global memory
  float *smBase = sm + exec * 1024;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (2048 B, double buffered)
  //   [  2048] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 12) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_PBox_r0(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 5: nodes {1} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition5_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] input {0 1} (2048 B, double buffered)
  //   [  6144] output {0 0} (6144 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_RRJoin2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 6: nodes {8} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 10240 bytes/execution (x4 executions)
__global__ void partition6_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 10240 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 2560;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (6144 B, double buffered)
  //   [  6144] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Mix_r0(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 7: nodes {9} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition7_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  //   [  8192] output {0 1} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_DupSplit2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 8: nodes {11} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=6 executions/SM, F=832 DT threads
// shared memory: 8192 bytes/execution (x6 executions)
__global__ void partition8_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 8192 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 192;      // last 832 threads stream global memory
  float *smBase = sm + exec * 2048;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Identity(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 9: nodes {12} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=8 executions/SM, F=768 DT threads
// shared memory: 6144 bytes/execution (x8 executions)
__global__ void partition9_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 6144 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 256;      // last 768 threads stream global memory
  float *smBase = sm + exec * 1536;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 8) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_TakeR_r1(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 10: nodes {13,14,15} on GPU 1 ----
// parameters: S=64 compute threads/execution, W=6 executions/SM, F=640 DT threads
// shared memory: 7172 bytes/execution (x6 executions)
__global__ void partition10_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 7172 bytes per execution
  const int exec = threadIdx.x / 64;        // execution slot within the block
  const bool isDT = threadIdx.x >= 384;      // last 640 threads stream global memory
  float *smBase = sm + exec * 1793;
  // shared-memory buffer map (byte offsets):
  //   [     0] chan Expand_r1->KeyMix_r1 (1536 B)
  //   [  1536] chan KeyMix_r1->SBox_r1 (1536 B)
  //   [  3072] input {0 0} (2048 B, double buffered)
  //   [  5120] output {2 0} (2048 B, double buffered)
  //   [  7168] state of node 1 (4 B)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Expand_r1(smBase); // x1 firing(s)
      run_KeyMix_r1(smBase); // x64 firing(s)
      run_SBox_r1(smBase); // x64 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 11: nodes {16} on GPU 1 ----
// parameters: S=1 compute threads/execution, W=12 executions/SM, F=992 DT threads
// shared memory: 4096 bytes/execution (x12 executions)
__global__ void partition11_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 4096 bytes per execution
  const int exec = threadIdx.x / 1;        // execution slot within the block
  const bool isDT = threadIdx.x >= 12;      // last 992 threads stream global memory
  float *smBase = sm + exec * 1024;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (2048 B, double buffered)
  //   [  2048] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 12) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_PBox_r1(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 12: nodes {10} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition12_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] input {0 1} (2048 B, double buffered)
  //   [  6144] output {0 0} (6144 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_RRJoin2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 13: nodes {17} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 10240 bytes/execution (x4 executions)
__global__ void partition13_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 10240 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 2560;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (6144 B, double buffered)
  //   [  6144] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Mix_r1(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 14: nodes {18} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition14_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  //   [  8192] output {0 1} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_DupSplit2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 15: nodes {20} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=6 executions/SM, F=832 DT threads
// shared memory: 8192 bytes/execution (x6 executions)
__global__ void partition15_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 8192 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 192;      // last 832 threads stream global memory
  float *smBase = sm + exec * 2048;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Identity(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 16: nodes {21} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=8 executions/SM, F=768 DT threads
// shared memory: 6144 bytes/execution (x8 executions)
__global__ void partition16_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 6144 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 256;      // last 768 threads stream global memory
  float *smBase = sm + exec * 1536;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 8) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_TakeR_r2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 17: nodes {22,23,24} on GPU 0 ----
// parameters: S=64 compute threads/execution, W=6 executions/SM, F=640 DT threads
// shared memory: 7172 bytes/execution (x6 executions)
__global__ void partition17_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 7172 bytes per execution
  const int exec = threadIdx.x / 64;        // execution slot within the block
  const bool isDT = threadIdx.x >= 384;      // last 640 threads stream global memory
  float *smBase = sm + exec * 1793;
  // shared-memory buffer map (byte offsets):
  //   [     0] chan Expand_r2->KeyMix_r2 (1536 B)
  //   [  1536] chan KeyMix_r2->SBox_r2 (1536 B)
  //   [  3072] input {0 0} (2048 B, double buffered)
  //   [  5120] output {2 0} (2048 B, double buffered)
  //   [  7168] state of node 1 (4 B)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Expand_r2(smBase); // x1 firing(s)
      run_KeyMix_r2(smBase); // x64 firing(s)
      run_SBox_r2(smBase); // x64 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 18: nodes {25} on GPU 0 ----
// parameters: S=1 compute threads/execution, W=12 executions/SM, F=992 DT threads
// shared memory: 4096 bytes/execution (x12 executions)
__global__ void partition18_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 4096 bytes per execution
  const int exec = threadIdx.x / 1;        // execution slot within the block
  const bool isDT = threadIdx.x >= 12;      // last 992 threads stream global memory
  float *smBase = sm + exec * 1024;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (2048 B, double buffered)
  //   [  2048] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 12) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_PBox_r2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 19: nodes {19} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition19_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] input {0 1} (2048 B, double buffered)
  //   [  6144] output {0 0} (6144 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_RRJoin2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 20: nodes {26} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 10240 bytes/execution (x4 executions)
__global__ void partition20_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 10240 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 2560;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (6144 B, double buffered)
  //   [  6144] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Mix_r2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 21: nodes {27} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition21_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  //   [  8192] output {0 1} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_DupSplit2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 22: nodes {29} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=6 executions/SM, F=832 DT threads
// shared memory: 8192 bytes/execution (x6 executions)
__global__ void partition22_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 8192 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 192;      // last 832 threads stream global memory
  float *smBase = sm + exec * 2048;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Identity(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 23: nodes {30} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=8 executions/SM, F=768 DT threads
// shared memory: 6144 bytes/execution (x8 executions)
__global__ void partition23_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 6144 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 256;      // last 768 threads stream global memory
  float *smBase = sm + exec * 1536;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 8) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_TakeR_r3(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 24: nodes {31,32,33} on GPU 1 ----
// parameters: S=64 compute threads/execution, W=6 executions/SM, F=640 DT threads
// shared memory: 7172 bytes/execution (x6 executions)
__global__ void partition24_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 7172 bytes per execution
  const int exec = threadIdx.x / 64;        // execution slot within the block
  const bool isDT = threadIdx.x >= 384;      // last 640 threads stream global memory
  float *smBase = sm + exec * 1793;
  // shared-memory buffer map (byte offsets):
  //   [     0] chan Expand_r3->KeyMix_r3 (1536 B)
  //   [  1536] chan KeyMix_r3->SBox_r3 (1536 B)
  //   [  3072] input {0 0} (2048 B, double buffered)
  //   [  5120] output {2 0} (2048 B, double buffered)
  //   [  7168] state of node 1 (4 B)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Expand_r3(smBase); // x1 firing(s)
      run_KeyMix_r3(smBase); // x64 firing(s)
      run_SBox_r3(smBase); // x64 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 25: nodes {34} on GPU 1 ----
// parameters: S=1 compute threads/execution, W=12 executions/SM, F=992 DT threads
// shared memory: 4096 bytes/execution (x12 executions)
__global__ void partition25_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 4096 bytes per execution
  const int exec = threadIdx.x / 1;        // execution slot within the block
  const bool isDT = threadIdx.x >= 12;      // last 992 threads stream global memory
  float *smBase = sm + exec * 1024;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (2048 B, double buffered)
  //   [  2048] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 12) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_PBox_r3(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 26: nodes {28} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition26_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] input {0 1} (2048 B, double buffered)
  //   [  6144] output {0 0} (6144 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_RRJoin2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 27: nodes {35} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 10240 bytes/execution (x4 executions)
__global__ void partition27_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 10240 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 2560;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (6144 B, double buffered)
  //   [  6144] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Mix_r3(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 28: nodes {36} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition28_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  //   [  8192] output {0 1} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_DupSplit2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 29: nodes {38} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=6 executions/SM, F=832 DT threads
// shared memory: 8192 bytes/execution (x6 executions)
__global__ void partition29_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 8192 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 192;      // last 832 threads stream global memory
  float *smBase = sm + exec * 2048;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Identity(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 30: nodes {39} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=8 executions/SM, F=768 DT threads
// shared memory: 6144 bytes/execution (x8 executions)
__global__ void partition30_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 6144 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 256;      // last 768 threads stream global memory
  float *smBase = sm + exec * 1536;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 8) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_TakeR_r4(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 31: nodes {40,41,42} on GPU 0 ----
// parameters: S=64 compute threads/execution, W=6 executions/SM, F=640 DT threads
// shared memory: 7172 bytes/execution (x6 executions)
__global__ void partition31_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 7172 bytes per execution
  const int exec = threadIdx.x / 64;        // execution slot within the block
  const bool isDT = threadIdx.x >= 384;      // last 640 threads stream global memory
  float *smBase = sm + exec * 1793;
  // shared-memory buffer map (byte offsets):
  //   [     0] chan Expand_r4->KeyMix_r4 (1536 B)
  //   [  1536] chan KeyMix_r4->SBox_r4 (1536 B)
  //   [  3072] input {0 0} (2048 B, double buffered)
  //   [  5120] output {2 0} (2048 B, double buffered)
  //   [  7168] state of node 1 (4 B)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Expand_r4(smBase); // x1 firing(s)
      run_KeyMix_r4(smBase); // x64 firing(s)
      run_SBox_r4(smBase); // x64 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 32: nodes {43} on GPU 0 ----
// parameters: S=1 compute threads/execution, W=12 executions/SM, F=992 DT threads
// shared memory: 4096 bytes/execution (x12 executions)
__global__ void partition32_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 4096 bytes per execution
  const int exec = threadIdx.x / 1;        // execution slot within the block
  const bool isDT = threadIdx.x >= 12;      // last 992 threads stream global memory
  float *smBase = sm + exec * 1024;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (2048 B, double buffered)
  //   [  2048] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 12) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_PBox_r4(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 33: nodes {37} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition33_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] input {0 1} (2048 B, double buffered)
  //   [  6144] output {0 0} (6144 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_RRJoin2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 34: nodes {44} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 10240 bytes/execution (x4 executions)
__global__ void partition34_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 10240 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 2560;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (6144 B, double buffered)
  //   [  6144] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Mix_r4(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 35: nodes {45} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition35_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  //   [  8192] output {0 1} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_DupSplit2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 36: nodes {47} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=6 executions/SM, F=832 DT threads
// shared memory: 8192 bytes/execution (x6 executions)
__global__ void partition36_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 8192 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 192;      // last 832 threads stream global memory
  float *smBase = sm + exec * 2048;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Identity(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 37: nodes {48} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=8 executions/SM, F=768 DT threads
// shared memory: 6144 bytes/execution (x8 executions)
__global__ void partition37_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 6144 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 256;      // last 768 threads stream global memory
  float *smBase = sm + exec * 1536;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 8) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_TakeR_r5(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 38: nodes {49,50,51} on GPU 1 ----
// parameters: S=64 compute threads/execution, W=6 executions/SM, F=640 DT threads
// shared memory: 7172 bytes/execution (x6 executions)
__global__ void partition38_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 7172 bytes per execution
  const int exec = threadIdx.x / 64;        // execution slot within the block
  const bool isDT = threadIdx.x >= 384;      // last 640 threads stream global memory
  float *smBase = sm + exec * 1793;
  // shared-memory buffer map (byte offsets):
  //   [     0] chan Expand_r5->KeyMix_r5 (1536 B)
  //   [  1536] chan KeyMix_r5->SBox_r5 (1536 B)
  //   [  3072] input {0 0} (2048 B, double buffered)
  //   [  5120] output {2 0} (2048 B, double buffered)
  //   [  7168] state of node 1 (4 B)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Expand_r5(smBase); // x1 firing(s)
      run_KeyMix_r5(smBase); // x64 firing(s)
      run_SBox_r5(smBase); // x64 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 39: nodes {52} on GPU 1 ----
// parameters: S=1 compute threads/execution, W=12 executions/SM, F=992 DT threads
// shared memory: 4096 bytes/execution (x12 executions)
__global__ void partition39_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 4096 bytes per execution
  const int exec = threadIdx.x / 1;        // execution slot within the block
  const bool isDT = threadIdx.x >= 12;      // last 992 threads stream global memory
  float *smBase = sm + exec * 1024;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (2048 B, double buffered)
  //   [  2048] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 12) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_PBox_r5(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 40: nodes {46} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition40_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] input {0 1} (2048 B, double buffered)
  //   [  6144] output {0 0} (6144 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_RRJoin2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 41: nodes {53} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 10240 bytes/execution (x4 executions)
__global__ void partition41_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 10240 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 2560;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (6144 B, double buffered)
  //   [  6144] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Mix_r5(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 42: nodes {54} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition42_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  //   [  8192] output {0 1} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_DupSplit2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 43: nodes {56} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=6 executions/SM, F=832 DT threads
// shared memory: 8192 bytes/execution (x6 executions)
__global__ void partition43_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 8192 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 192;      // last 832 threads stream global memory
  float *smBase = sm + exec * 2048;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Identity(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 44: nodes {57} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=8 executions/SM, F=768 DT threads
// shared memory: 6144 bytes/execution (x8 executions)
__global__ void partition44_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 6144 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 256;      // last 768 threads stream global memory
  float *smBase = sm + exec * 1536;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 8) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_TakeR_r6(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 45: nodes {58,59,60} on GPU 0 ----
// parameters: S=64 compute threads/execution, W=6 executions/SM, F=640 DT threads
// shared memory: 7172 bytes/execution (x6 executions)
__global__ void partition45_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 7172 bytes per execution
  const int exec = threadIdx.x / 64;        // execution slot within the block
  const bool isDT = threadIdx.x >= 384;      // last 640 threads stream global memory
  float *smBase = sm + exec * 1793;
  // shared-memory buffer map (byte offsets):
  //   [     0] chan Expand_r6->KeyMix_r6 (1536 B)
  //   [  1536] chan KeyMix_r6->SBox_r6 (1536 B)
  //   [  3072] input {0 0} (2048 B, double buffered)
  //   [  5120] output {2 0} (2048 B, double buffered)
  //   [  7168] state of node 1 (4 B)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Expand_r6(smBase); // x1 firing(s)
      run_KeyMix_r6(smBase); // x64 firing(s)
      run_SBox_r6(smBase); // x64 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 46: nodes {61} on GPU 0 ----
// parameters: S=1 compute threads/execution, W=12 executions/SM, F=992 DT threads
// shared memory: 4096 bytes/execution (x12 executions)
__global__ void partition46_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 4096 bytes per execution
  const int exec = threadIdx.x / 1;        // execution slot within the block
  const bool isDT = threadIdx.x >= 12;      // last 992 threads stream global memory
  float *smBase = sm + exec * 1024;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (2048 B, double buffered)
  //   [  2048] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 12) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_PBox_r6(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 47: nodes {55} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition47_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] input {0 1} (2048 B, double buffered)
  //   [  6144] output {0 0} (6144 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_RRJoin2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 48: nodes {62} on GPU 0 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 10240 bytes/execution (x4 executions)
__global__ void partition48_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 10240 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 2560;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (6144 B, double buffered)
  //   [  6144] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Mix_r6(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 49: nodes {63} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition49_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  //   [  8192] output {0 1} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_DupSplit2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 50: nodes {65} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=6 executions/SM, F=832 DT threads
// shared memory: 8192 bytes/execution (x6 executions)
__global__ void partition50_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 8192 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 192;      // last 832 threads stream global memory
  float *smBase = sm + exec * 2048;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Identity(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 51: nodes {66} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=8 executions/SM, F=768 DT threads
// shared memory: 6144 bytes/execution (x8 executions)
__global__ void partition51_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 6144 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 256;      // last 768 threads stream global memory
  float *smBase = sm + exec * 1536;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 8) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_TakeR_r7(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 52: nodes {67,68,69} on GPU 1 ----
// parameters: S=64 compute threads/execution, W=6 executions/SM, F=640 DT threads
// shared memory: 7172 bytes/execution (x6 executions)
__global__ void partition52_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 7172 bytes per execution
  const int exec = threadIdx.x / 64;        // execution slot within the block
  const bool isDT = threadIdx.x >= 384;      // last 640 threads stream global memory
  float *smBase = sm + exec * 1793;
  // shared-memory buffer map (byte offsets):
  //   [     0] chan Expand_r7->KeyMix_r7 (1536 B)
  //   [  1536] chan KeyMix_r7->SBox_r7 (1536 B)
  //   [  3072] input {0 0} (2048 B, double buffered)
  //   [  5120] output {2 0} (2048 B, double buffered)
  //   [  7168] state of node 1 (4 B)
  for (int it = 0; it < nExec; it += 6) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Expand_r7(smBase); // x1 firing(s)
      run_KeyMix_r7(smBase); // x64 firing(s)
      run_SBox_r7(smBase); // x64 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 53: nodes {70} on GPU 1 ----
// parameters: S=1 compute threads/execution, W=12 executions/SM, F=992 DT threads
// shared memory: 4096 bytes/execution (x12 executions)
__global__ void partition53_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 4096 bytes per execution
  const int exec = threadIdx.x / 1;        // execution slot within the block
  const bool isDT = threadIdx.x >= 12;      // last 992 threads stream global memory
  float *smBase = sm + exec * 1024;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (2048 B, double buffered)
  //   [  2048] output {0 0} (2048 B, double buffered)
  for (int it = 0; it < nExec; it += 12) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_PBox_r7(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 54: nodes {64} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 12288 bytes/execution (x4 executions)
__global__ void partition54_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 12288 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 3072;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (4096 B, double buffered)
  //   [  4096] input {0 1} (2048 B, double buffered)
  //   [  6144] output {0 0} (6144 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_RRJoin2(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- partition 55: nodes {71} on GPU 1 ----
// parameters: S=32 compute threads/execution, W=4 executions/SM, F=896 DT threads
// shared memory: 10240 bytes/execution (x4 executions)
__global__ void partition55_kernel(const float *gin, float *gout, int nExec) {
  extern __shared__ float sm[]; // 10240 bytes per execution
  const int exec = threadIdx.x / 32;        // execution slot within the block
  const bool isDT = threadIdx.x >= 128;      // last 896 threads stream global memory
  float *smBase = sm + exec * 2560;
  // shared-memory buffer map (byte offsets):
  //   [     0] input {0 0} (6144 B, double buffered)
  //   [  6144] output {0 0} (4096 B, double buffered)
  for (int it = 0; it < nExec; it += 4) {
    if (isDT) {
      dt_stream_in(gin, smBase);   // F threads fill the next double buffer
      dt_stream_out(smBase, gout);
    } else {
      run_Mix_r7(smBase); // x1 firing(s)
    }
    __syncthreads();
    swap_buffers(smBase); // WS <-> DB rotation (all threads)
  }
}

// ---- host driver: pipelined multi-GPU execution (Figure 3.5) ----
void run_pipeline(int nFragments) {
  cudaStream_t streams_gpu0[N_ASYNC_STREAMS];
  cudaStream_t streams_gpu1[N_ASYNC_STREAMS];
  for (int frag = 0; frag < nFragments; frag++) {
    cudaSetDevice(0);
    partition0_kernel<<<16, 1024, 49152, s>>>(in0, out0, 512);
    cudaSetDevice(0);
    partition1_kernel<<<16, 1024, 49152, s>>>(in1, out1, 512);
    cudaSetDevice(0);
    partition2_kernel<<<16, 1024, 49152, s>>>(in2, out2, 512);
    cudaSetDevice(0);
    partition3_kernel<<<16, 1024, 43032, s>>>(in3, out3, 512);
    cudaSetDevice(0);
    partition4_kernel<<<16, 1004, 49152, s>>>(in4, out4, 512);
    cudaSetDevice(0);
    partition5_kernel<<<16, 1024, 49152, s>>>(in5, out5, 512);
    cudaSetDevice(0);
    partition6_kernel<<<16, 1024, 40960, s>>>(in6, out6, 512);
    cudaSetDevice(1);
    cudaMemcpyPeerAsync(dev1_in, 1, dev0_out, 0, 1048576, s);
    partition7_kernel<<<16, 1024, 49152, s>>>(in7, out7, 512);
    cudaSetDevice(1);
    partition8_kernel<<<16, 1024, 49152, s>>>(in8, out8, 512);
    cudaSetDevice(1);
    partition9_kernel<<<16, 1024, 49152, s>>>(in9, out9, 512);
    cudaSetDevice(1);
    partition10_kernel<<<16, 1024, 43032, s>>>(in10, out10, 512);
    cudaSetDevice(1);
    partition11_kernel<<<16, 1004, 49152, s>>>(in11, out11, 512);
    cudaSetDevice(1);
    partition12_kernel<<<16, 1024, 49152, s>>>(in12, out12, 512);
    cudaSetDevice(1);
    partition13_kernel<<<16, 1024, 40960, s>>>(in13, out13, 512);
    cudaSetDevice(0);
    cudaMemcpyPeerAsync(dev0_in, 0, dev1_out, 1, 1048576, s);
    partition14_kernel<<<16, 1024, 49152, s>>>(in14, out14, 512);
    cudaSetDevice(0);
    partition15_kernel<<<16, 1024, 49152, s>>>(in15, out15, 512);
    cudaSetDevice(0);
    partition16_kernel<<<16, 1024, 49152, s>>>(in16, out16, 512);
    cudaSetDevice(0);
    partition17_kernel<<<16, 1024, 43032, s>>>(in17, out17, 512);
    cudaSetDevice(0);
    partition18_kernel<<<16, 1004, 49152, s>>>(in18, out18, 512);
    cudaSetDevice(0);
    partition19_kernel<<<16, 1024, 49152, s>>>(in19, out19, 512);
    cudaSetDevice(0);
    partition20_kernel<<<16, 1024, 40960, s>>>(in20, out20, 512);
    cudaSetDevice(1);
    cudaMemcpyPeerAsync(dev1_in, 1, dev0_out, 0, 1048576, s);
    partition21_kernel<<<16, 1024, 49152, s>>>(in21, out21, 512);
    cudaSetDevice(1);
    partition22_kernel<<<16, 1024, 49152, s>>>(in22, out22, 512);
    cudaSetDevice(1);
    partition23_kernel<<<16, 1024, 49152, s>>>(in23, out23, 512);
    cudaSetDevice(1);
    partition24_kernel<<<16, 1024, 43032, s>>>(in24, out24, 512);
    cudaSetDevice(1);
    partition25_kernel<<<16, 1004, 49152, s>>>(in25, out25, 512);
    cudaSetDevice(1);
    partition26_kernel<<<16, 1024, 49152, s>>>(in26, out26, 512);
    cudaSetDevice(1);
    partition27_kernel<<<16, 1024, 40960, s>>>(in27, out27, 512);
    cudaSetDevice(0);
    cudaMemcpyPeerAsync(dev0_in, 0, dev1_out, 1, 1048576, s);
    partition28_kernel<<<16, 1024, 49152, s>>>(in28, out28, 512);
    cudaSetDevice(0);
    partition29_kernel<<<16, 1024, 49152, s>>>(in29, out29, 512);
    cudaSetDevice(0);
    partition30_kernel<<<16, 1024, 49152, s>>>(in30, out30, 512);
    cudaSetDevice(0);
    partition31_kernel<<<16, 1024, 43032, s>>>(in31, out31, 512);
    cudaSetDevice(0);
    partition32_kernel<<<16, 1004, 49152, s>>>(in32, out32, 512);
    cudaSetDevice(0);
    partition33_kernel<<<16, 1024, 49152, s>>>(in33, out33, 512);
    cudaSetDevice(0);
    partition34_kernel<<<16, 1024, 40960, s>>>(in34, out34, 512);
    cudaSetDevice(1);
    cudaMemcpyPeerAsync(dev1_in, 1, dev0_out, 0, 1048576, s);
    partition35_kernel<<<16, 1024, 49152, s>>>(in35, out35, 512);
    cudaSetDevice(1);
    partition36_kernel<<<16, 1024, 49152, s>>>(in36, out36, 512);
    cudaSetDevice(1);
    partition37_kernel<<<16, 1024, 49152, s>>>(in37, out37, 512);
    cudaSetDevice(1);
    partition38_kernel<<<16, 1024, 43032, s>>>(in38, out38, 512);
    cudaSetDevice(1);
    partition39_kernel<<<16, 1004, 49152, s>>>(in39, out39, 512);
    cudaSetDevice(1);
    partition40_kernel<<<16, 1024, 49152, s>>>(in40, out40, 512);
    cudaSetDevice(1);
    partition41_kernel<<<16, 1024, 40960, s>>>(in41, out41, 512);
    cudaSetDevice(0);
    cudaMemcpyPeerAsync(dev0_in, 0, dev1_out, 1, 1048576, s);
    partition42_kernel<<<16, 1024, 49152, s>>>(in42, out42, 512);
    cudaSetDevice(0);
    partition43_kernel<<<16, 1024, 49152, s>>>(in43, out43, 512);
    cudaSetDevice(0);
    partition44_kernel<<<16, 1024, 49152, s>>>(in44, out44, 512);
    cudaSetDevice(0);
    partition45_kernel<<<16, 1024, 43032, s>>>(in45, out45, 512);
    cudaSetDevice(0);
    partition46_kernel<<<16, 1004, 49152, s>>>(in46, out46, 512);
    cudaSetDevice(0);
    partition47_kernel<<<16, 1024, 49152, s>>>(in47, out47, 512);
    cudaSetDevice(0);
    partition48_kernel<<<16, 1024, 40960, s>>>(in48, out48, 512);
    cudaSetDevice(1);
    cudaMemcpyPeerAsync(dev1_in, 1, dev0_out, 0, 1048576, s);
    partition49_kernel<<<16, 1024, 49152, s>>>(in49, out49, 512);
    cudaSetDevice(1);
    partition50_kernel<<<16, 1024, 49152, s>>>(in50, out50, 512);
    cudaSetDevice(1);
    partition51_kernel<<<16, 1024, 49152, s>>>(in51, out51, 512);
    cudaSetDevice(1);
    partition52_kernel<<<16, 1024, 43032, s>>>(in52, out52, 512);
    cudaSetDevice(1);
    partition53_kernel<<<16, 1004, 49152, s>>>(in53, out53, 512);
    cudaSetDevice(1);
    partition54_kernel<<<16, 1024, 49152, s>>>(in54, out54, 512);
    cudaSetDevice(1);
    partition55_kernel<<<16, 1024, 40960, s>>>(in55, out55, 512);
  }
  // streams of different fragments overlap: transfers hide behind kernels
}
